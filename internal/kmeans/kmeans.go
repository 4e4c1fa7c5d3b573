// Package kmeans implements the K-means clustering used to construct the
// codebooks of quantization-based indexes (Sec. 3.1): the coarse quantizer
// clusters vectors into K buckets, and the product quantizer runs K-means
// independently in each sub-space.
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"vectordb/internal/bufferpool"
	"vectordb/internal/vec"
)

// Config controls a clustering run.
type Config struct {
	K       int   // number of centroids; required
	MaxIter int   // Lloyd iterations; default 16
	Seed    int64 // RNG seed for k-means++ init; default 1
}

func (c *Config) defaults() {
	if c.MaxIter <= 0 {
		c.MaxIter = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result holds trained centroids in a flat row-major matrix.
type Result struct {
	K         int
	Dim       int
	Centroids []float32 // K*Dim
}

// Centroid returns centroid i as a slice view.
func (r *Result) Centroid(i int) []float32 { return r.Centroids[i*r.Dim : (i+1)*r.Dim] }

// Assign returns the index of the centroid closest to v (the quantizer z(v)
// of Sec. 3.1) and the squared distance to it.
func (r *Result) Assign(v []float32) (int, float32) { return Nearest(v, r.Centroids, r.Dim) }

// Nearest returns the row of the flat row-major codebook (rows of dim
// floats) closest to v in squared L2, and that distance. The whole codebook
// is scored in one batch-kernel dispatch; ties go to the lowest row.
func Nearest(v, codebook []float32, dim int) (int, float32) {
	bp := bufferpool.GetFloats(len(codebook) / dim)
	d := *bp
	vec.L2SquaredBatch(v, codebook, dim, d)
	best := argmin(d)
	bestD := d[best]
	bufferpool.PutFloats(bp)
	return best, bestD
}

// argmin returns the index of the first minimum of d (len(d) > 0).
func argmin(d []float32) int {
	best := 0
	for i, x := range d {
		if x < d[best] {
			best = i
		}
	}
	return best
}

// assignTile caps the rows×K distance tile of AssignAll (floats), keeping
// it cache-resident whatever the codebook size; a tile also holds at most
// 64 rows.
const assignTile = 16384

// AssignAll writes the nearest centroid of every row of data (flat
// row-major, n = len(assign) rows) into assign, and reports whether any
// entry changed. Rows are split across GOMAXPROCS goroutines, and each
// scores a block of its rows against the whole codebook in one tile-kernel
// dispatch; ties go to the lowest centroid, as in Assign.
func (r *Result) AssignAll(data []float32, assign []int) bool {
	n, dim := len(assign), r.Dim
	threads := max(min(runtime.GOMAXPROCS(0), n), 1)
	rows := min(max(assignTile/r.K, 1), 64)
	var changed atomic.Bool
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			bp := bufferpool.GetFloats(rows * r.K)
			tile := *bp
			local := false
			for i0 := lo; i0 < hi; i0 += rows {
				i1 := min(i0+rows, hi)
				vec.L2SquaredTile(data[i0*dim:i1*dim], r.Centroids, dim, tile)
				for i := i0; i < i1; i++ {
					if c := argmin(tile[(i-i0)*r.K : (i-i0+1)*r.K]); assign[i] != c {
						assign[i] = c
						local = true
					}
				}
			}
			bufferpool.PutFloats(bp)
			if local {
				changed.Store(true)
			}
		}()
	}
	wg.Wait()
	return changed.Load()
}

// Train clusters n vectors (flat row-major, n = len(data)/dim) into cfg.K
// centroids with k-means++ initialization and Lloyd refinement.
func Train(data []float32, dim int, cfg Config) (*Result, error) {
	cfg.defaults()
	if dim <= 0 {
		return nil, fmt.Errorf("kmeans: dim must be positive, got %d", dim)
	}
	if len(data)%dim != 0 {
		return nil, fmt.Errorf("kmeans: data length %d not a multiple of dim %d", len(data), dim)
	}
	n := len(data) / dim
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d", cfg.K)
	}
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no training vectors")
	}
	if n < cfg.K {
		// Degenerate but legal: every point is its own centroid, remaining
		// centroids duplicate existing points so Assign stays total.
		res := &Result{K: cfg.K, Dim: dim, Centroids: make([]float32, cfg.K*dim)}
		for i := 0; i < cfg.K; i++ {
			copy(res.Centroids[i*dim:(i+1)*dim], data[(i%n)*dim:(i%n+1)*dim])
		}
		return res, nil
	}

	r := rand.New(rand.NewSource(cfg.Seed))
	cents := initPlusPlus(data, dim, n, cfg.K, r)
	res := &Result{K: cfg.K, Dim: dim, Centroids: cents}

	assign := make([]int, n)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		changed := res.AssignAll(data, assign)
		recompute(data, dim, n, res, assign, r)
		if !changed {
			break
		}
	}
	return res, nil
}

// initPlusPlus seeds centroids with the k-means++ D² sampling scheme: each
// new centroid is scored against every row in one batch-kernel dispatch.
func initPlusPlus(data []float32, dim, n, k int, r *rand.Rand) []float32 {
	cents := make([]float32, k*dim)
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	dist := make([]float32, n)
	pick := r.Intn(n)
	for c := 0; ; c++ {
		cent := cents[c*dim : (c+1)*dim]
		copy(cent, data[pick*dim:(pick+1)*dim])
		if c == k-1 {
			return cents
		}
		vec.L2SquaredBatch(cent, data, dim, dist)
		var sum float64
		for i, d := range dist {
			d2[i] = min(d2[i], float64(d))
			sum += d2[i]
		}
		if sum <= 0 {
			pick = r.Intn(n)
			continue
		}
		target := r.Float64() * sum
		pick = 0
		for i, d := range d2 {
			target -= d
			if target <= 0 {
				pick = i
				break
			}
		}
	}
}

func recompute(data []float32, dim, n int, res *Result, assign []int, r *rand.Rand) {
	counts := make([]int, res.K)
	next := make([]float64, res.K*dim)
	for i := 0; i < n; i++ {
		c := assign[i]
		counts[c]++
		row := data[i*dim : (i+1)*dim]
		acc := next[c*dim : (c+1)*dim]
		for j, x := range row {
			acc[j] += float64(x)
		}
	}
	for c := 0; c < res.K; c++ {
		if counts[c] == 0 {
			// Empty cluster: reseed from a random point so K stays honest.
			p := r.Intn(n)
			copy(res.Centroids[c*dim:(c+1)*dim], data[p*dim:(p+1)*dim])
			continue
		}
		inv := 1 / float64(counts[c])
		for j := 0; j < dim; j++ {
			res.Centroids[c*dim+j] = float32(next[c*dim+j] * inv)
		}
	}
}
