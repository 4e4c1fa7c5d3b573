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

// assignRows is the row block of AssignAll: one panel-kernel dispatch
// scores this many rows against the whole codebook.
const assignRows = 64

// AssignAll writes the nearest centroid of every row of data (flat
// row-major, n = len(assign) rows) into assign, and reports whether any
// entry changed. The answer is, row for row, the first minimum of the
// exact L2 distances the batch kernel gives for (row, centroid) — what
// Assign computes — but almost every row is settled by the panel kernel
// alone: the codebook is transposed into panels once per call, and
// GOMAXPROCS goroutines claim blocks of assignRows rows, each scored in
// one vec.L2PanelMin dispatch beside one batch dispatch for the rows'
// norms. A row whose two lowest scores lie within its error window
// (errWindow.of) re-scores its candidates with the exact kernel; ties go
// to the lowest centroid, as in Assign.
func (r *Result) AssignAll(data []float32, assign []int) bool {
	n, dim := len(assign), r.Dim
	p := vec.NewPanels(r.Centroids, dim)
	ew := newErrWindow(dim, p.MaxNorm())
	zero := make([]float32, dim)
	blocks := (n + assignRows - 1) / assignRows
	threads := max(min(runtime.GOMAXPROCS(0), blocks), 1)
	var next atomic.Int64
	var changed atomic.Bool
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]vec.PanelMin, assignRows)
			sq := make([]float32, assignRows)
			cand := make([]bool, r.K)
			local := false
			for b := int(next.Add(1) - 1); b < blocks; b = int(next.Add(1) - 1) {
				i0, i1 := b*assignRows, min((b+1)*assignRows, n)
				block := data[i0*dim : i1*dim]
				vec.L2SquaredBatch(zero, block, dim, sq) // ‖x‖² = ‖x − 0‖²
				vec.L2PanelMin(block, p, out)
				for i := i0; i < i1; i++ {
					x := data[i*dim : (i+1)*dim]
					if c := r.settle(x, ew.of(sq[i-i0]), &out[i-i0], cand); assign[i] != c {
						assign[i] = c
						local = true
					}
				}
			}
			if local {
				changed.Store(true)
			}
		}()
	}
	wg.Wait()
	return changed.Load()
}

// errWindow computes, per row x, the error window W of the panel scores:
// the bound that settle relies on to return the exact kernel's answer.
//
// Let s_c be the panel kernel's score of centroid c and e_c the exact
// kernel's distance, both float32 with unit roundoff u = 2⁻²⁴, and
// γ_n = n·u/(1 − n·u). Write R = ‖x‖ + max‖c‖ and n = dim. The dot
// product x·c, summed in any order with or without FMA, is within
// γ_n·Σ|x_d·c_d| ≤ γ_n·‖x‖·‖c‖ of exact; the norm ‖c‖², rounded once from
// float64, within u·‖c‖²; the score's one rounding adds u of its size.
// So s_c is within γ_{n+1}·(‖c‖² + 2‖x‖‖c‖) ≤ γ_{n+2}·R² of
// ‖x − c‖² − ‖x‖². The exact kernel rounds each difference, its square
// and n − 1 sums, so e_c is within γ_{n+2}·‖x − c‖² ≤ γ_{n+2}·R² of
// ‖x − c‖². With δ = 2·γ_{n+2}·R² bounding both errors together, let m be
// the exact first minimum and b the lowest score: s_m − s_b ≤
// (e_m − e_b) + 2δ ≤ 2δ. So W = 2δ = 4·γ_{n+2}·R² keeps m among the
// centroids scoring within W of s_b; if only b does, b is m.
//
// Products of tiny values underflow into subnormals, where a rounding may
// instead err by up to 2⁻¹⁵⁰ absolute; the 2⁻¹⁴⁶·(n + 1) term covers the
// ~7n roundings of both computations. ‖x‖² is the exact kernel's distance
// from x to the origin, so the true value is at most that times 1 + γ_{n+2}
// plus (n + 1)·2⁻¹⁵⁰; max‖c‖ is a float64 sum (relative error ~n·2⁻⁵³),
// which the 1e-6 slack covers with the float64 arithmetic here. A
// generous W costs re-checks only.
//
// The bound needs no value to overflow: when R² is not below
// MaxFloat32/4 (a NaN or Inf in x or a centroid makes it so), or the
// window itself is not finite, the row is re-scored exactly instead.
type errWindow struct {
	gamma, maxNorm, sub float64 // γ_{n+2}, max‖c‖, (n + 1)·2⁻¹⁵⁰
}

func newErrWindow(dim int, maxNorm float64) errWindow {
	nu := float64(dim+2) * 0x1p-24
	if nu >= 0.5 {
		maxNorm = math.NaN() // no useful bound at this dim: re-score every row
	}
	return errWindow{gamma: nu / (1 - nu), maxNorm: maxNorm, sub: float64(dim+1) * 0x1p-150}
}

// of returns W for a row whose exact-kernel ‖x‖² is sq, or -1 when the
// row must be re-scored exactly.
func (e errWindow) of(sq float32) float64 {
	rr := math.Sqrt(float64(sq)*(1+e.gamma)+e.sub) + e.maxNorm
	rr *= rr
	if !(rr < math.MaxFloat32/4) {
		return -1
	}
	return 4*e.gamma*rr*(1+1e-6) + 16*e.sub
}

// settle returns the nearest centroid of row x from its panel-kernel
// result m and error window w. The lanes' minima give the lowest score b,
// its centroid and the runner-up score; a runner-up more than w above b
// leaves b the only candidate. Otherwise every centroid that can score
// within w of b is marked in cand (a lane whose second minimum is inside
// may hold several, so all of that lane's centroids are) and re-scored
// exactly; a row without a window (w < 0) re-scores all of them.
func (r *Result) settle(x []float32, w float64, m *vec.PanelMin, cand []bool) int {
	best, second, arg := m.Best[0], m.Second[0], m.Arg[0]
	for j := 1; j < vec.PanelWidth; j++ {
		switch b := m.Best[j]; {
		case b < best:
			second = min(best, m.Second[j])
			best, arg = b, m.Arg[j]
		case b == best:
			second = best
			arg = min(arg, m.Arg[j])
		default:
			second = min(second, b)
		}
	}
	if w < 0 || math.IsInf(float64(best), 0) || math.IsNaN(float64(best)) {
		return r.exactNearest(x, nil)
	}
	bound := float64(best) + w
	if float64(second) > bound {
		return int(arg)
	}
	for j := 0; j < vec.PanelWidth && j < r.K; j++ {
		switch {
		case float64(m.Second[j]) <= bound:
			for c := j; c < r.K; c += vec.PanelWidth {
				cand[c] = true
			}
		case float64(m.Best[j]) <= bound:
			cand[m.Arg[j]] = true
		}
	}
	return r.exactNearest(x, cand)
}

// exactNearest returns the first minimum of the exact distances from x to
// the centroids marked in cand (every centroid when cand is nil), each
// scored alone through the batch kernel, and clears the marks. Scanning in
// index order with a strict comparison keeps the lowest of tied centroids,
// and a NaN distance is passed over unless it is the first.
func (r *Result) exactNearest(x []float32, cand []bool) int {
	best := -1
	var bestD float32
	d := make([]float32, 1)
	for c := 0; c < r.K; c++ {
		if cand != nil {
			if !cand[c] {
				continue
			}
			cand[c] = false
		}
		vec.L2SquaredBatch(x, r.Centroid(c), r.Dim, d)
		if best < 0 || d[0] < bestD {
			best, bestD = c, d[0]
		}
	}
	return best
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
