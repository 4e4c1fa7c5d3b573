package kmeans

import (
	"fmt"
	"math/rand"
	"testing"
)

// uniformRows returns n rows of dim floats uniform in [0, 1), the data of
// the IVF workloads whose builds these cells time.
func uniformRows(n, dim int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = r.Float32()
	}
	return data
}

// BenchmarkTrain times a whole clustering: k-means++ seeding, then the
// Lloyd iterations. The 16,384-row cases are the two IVF_FLAT builds of a
// segment at the benchmark's IVF shapes (dim 32 with nlist 128, dim 64
// with nlist 256), at ivf.Build's default of 10 iterations.
func BenchmarkTrain(b *testing.B) {
	b.Run("4096x32/K16", func(b *testing.B) {
		r := rand.New(rand.NewSource(4))
		data, _ := clusteredData(r, 16, 256, 32, 2)
		benchTrain(b, data, 32, Config{K: 16, MaxIter: 8})
	})
	for _, c := range []struct{ n, dim, k int }{{16384, 32, 128}, {16384, 64, 256}} {
		b.Run(fmt.Sprintf("%dx%d/K%d", c.n, c.dim, c.k), func(b *testing.B) {
			benchTrain(b, uniformRows(c.n, c.dim, 4), c.dim, Config{K: c.k, MaxIter: 10})
		})
	}
}

func benchTrain(b *testing.B, data []float32, dim int, cfg Config) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(data, dim, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignAll times one 64-row block against a 256-centroid
// codebook at dim 64: the unit of work a Lloyd iteration repeats.
func BenchmarkAssignAll(b *testing.B) {
	const n, dim, k = 64, 64, 256
	res := &Result{K: k, Dim: dim, Centroids: uniformRows(k, dim, 5)}
	data := uniformRows(n, dim, 6)
	assign := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res.AssignAll(data, assign)
	}
}
