package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"vectordb/internal/vec"
)

// clusteredData produces k well-separated Gaussian blobs.
func clusteredData(r *rand.Rand, k, perCluster, dim int, spread float64) ([]float32, [][]float32) {
	centers := make([][]float32, k)
	data := make([]float32, 0, k*perCluster*dim)
	for c := 0; c < k; c++ {
		center := make([]float32, dim)
		for j := range center {
			center[j] = float32(r.NormFloat64() * 50)
		}
		centers[c] = center
		for i := 0; i < perCluster; i++ {
			for j := 0; j < dim; j++ {
				data = append(data, center[j]+float32(r.NormFloat64()*spread))
			}
		}
	}
	return data, centers
}

func TestTrainRecoversWellSeparatedClusters(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dim := 8
	data, centers := clusteredData(r, 4, 100, dim, 0.5)
	res, err := Train(data, dim, Config{K: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Every true center must have a trained centroid very close to it.
	for _, c := range centers {
		_, d := res.Assign(c)
		if d > 5 {
			t.Errorf("no centroid near true center (d=%v)", d)
		}
	}
}

func TestAssignConsistency(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	dim := 4
	data, _ := clusteredData(r, 3, 50, dim, 1)
	res, err := Train(data, dim, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Assign must pick the genuinely nearest centroid.
	for i := 0; i < 20; i++ {
		v := data[i*dim : (i+1)*dim]
		got, gotD := res.Assign(v)
		for c := 0; c < res.K; c++ {
			if d := vec.L2Squared(v, res.Centroid(c)); d < gotD {
				t.Fatalf("Assign picked %d (d=%v) but %d has d=%v", got, gotD, c, d)
			}
		}
	}
}

// TestAssignMatchesExactArgmin: on every kernel tier, Assign and the tiled
// AssignAll pick a float64-nearest centroid, up to the documented 1e-5
// relative tolerance (DESIGN.md §8), for codebooks from one centroid to
// more than one 256-row block and a row count that leaves a ragged tile.
func TestAssignMatchesExactArgmin(t *testing.T) {
	defer vec.SetLevel(vec.CurrentLevel())
	r := rand.New(rand.NewSource(5))
	const dim, n = 20, 1000
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	for _, k := range []int{1, 7, 300} {
		res := &Result{K: k, Dim: dim, Centroids: make([]float32, k*dim)}
		for i := range res.Centroids {
			res.Centroids[i] = float32(r.NormFloat64())
		}
		for _, lvl := range vec.Levels() {
			vec.SetLevel(lvl)
			assign := make([]int, n)
			res.AssignAll(data, assign)
			for i := 0; i < n; i++ {
				v := data[i*dim : (i+1)*dim]
				ref := make([]float64, k)
				best := 0
				for c := range ref {
					for j, x := range v {
						e := float64(x) - float64(res.Centroid(c)[j])
						ref[c] += e * e
					}
					if ref[c] < ref[best] {
						best = c
					}
				}
				tol := 1e-5 * math.Max(1, ref[best])
				got, gotD := res.Assign(v)
				if ref[got] > ref[best]+tol || math.Abs(float64(gotD)-ref[got]) > tol {
					t.Fatalf("K %d %v row %d: Assign = %d (d=%v, exact %g), nearest %d (d=%g)", k, lvl, i, got, gotD, ref[got], best, ref[best])
				}
				if ref[assign[i]] > ref[best]+tol {
					t.Fatalf("K %d %v row %d: AssignAll = %d (d=%g), nearest %d (d=%g)", k, lvl, i, assign[i], ref[assign[i]], best, ref[best])
				}
			}
			if res.AssignAll(data, assign) {
				t.Fatalf("K %d %v: reassigning the same rows reported a change", k, lvl)
			}
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train([]float32{1, 2, 3}, 2, Config{K: 1}); err == nil {
		t.Error("ragged data accepted")
	}
	if _, err := Train([]float32{1, 2}, 0, Config{K: 1}); err == nil {
		t.Error("zero dim accepted")
	}
	if _, err := Train([]float32{1, 2}, 2, Config{K: 0}); err == nil {
		t.Error("zero K accepted")
	}
	if _, err := Train(nil, 2, Config{K: 1}); err == nil {
		t.Error("empty data accepted")
	}
}

func TestTrainFewerPointsThanK(t *testing.T) {
	data := []float32{1, 1, 5, 5}
	res, err := Train(data, 2, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	// Assign must still be total and exact for the training points.
	if c, d := res.Assign([]float32{1, 1}); d != 0 {
		t.Errorf("Assign(point) = %d with d=%v, want d=0", c, d)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dim := 6
	data, _ := clusteredData(r, 5, 40, dim, 1)
	a, err := Train(data, dim, Config{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, dim, Config{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatal("same seed produced different centroids")
		}
	}
}

func TestNoEmptyClustersOnDuplicateData(t *testing.T) {
	// All points identical: reseeding keeps centroids defined (not NaN).
	data := make([]float32, 32*4)
	for i := range data {
		data[i] = 7
	}
	res, err := Train(data, 4, Config{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res.Centroids {
		if x != 7 {
			t.Fatalf("centroid drifted to %v on constant data", x)
		}
	}
}

func BenchmarkTrain(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	dim := 32
	data, _ := clusteredData(r, 16, 256, dim, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(data, dim, Config{K: 16, MaxIter: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
