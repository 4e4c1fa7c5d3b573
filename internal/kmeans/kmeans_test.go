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

// tileArgmin is the assignment AssignAll made before the panel kernel, the
// reference it must reproduce: every row scored against the whole
// codebook by the tile kernel, then the scalar first minimum.
func tileArgmin(res *Result, data []float32) []int {
	dim, n := res.Dim, len(data)/res.Dim
	d := make([]float32, res.K)
	want := make([]int, n)
	for i := range want {
		vec.L2SquaredTile(data[i*dim:(i+1)*dim], res.Centroids, dim, d)
		want[i] = argmin(d)
	}
	return want
}

// assignCorpus builds a codebook of k centroids and rows against it at one
// scale: rows drawn at random, rows equal to a centroid (some centroids
// appear twice, so the tie must go to the lower index), and rows exactly
// (nearly) equidistant from two centroids. Integer grids times a power of
// two keep the mirrored centroids x ± δ exact, from 2⁻⁶⁶ (about 1e-20, where the
// squares are subnormal) to SIFT's 0–255; scale 0 draws uniform [0, 1)
// floats instead.
func assignCorpus(r *rand.Rand, dim, k int, scale float32) (cents, rows []float32) {
	draw := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			if scale == 0 {
				v[i] = r.Float32()
			} else {
				v[i] = float32(r.Intn(256)) * scale
			}
		}
		return v
	}
	cents = draw(k * dim)
	for _, dup := range [][2]int{{0, k - 1}, {5, 17}, {3, 4}, {1, 200}} {
		if dup[1] < k && dup[0] != dup[1] {
			copy(cents[dup[1]*dim:(dup[1]+1)*dim], cents[dup[0]*dim:(dup[0]+1)*dim])
		}
	}
	rows = draw(70 * dim)
	for c := 0; c < k; c += 1 + k/8 {
		rows = append(rows, cents[c*dim:(c+1)*dim]...)
	}
	if k >= 3 {
		// Centroids a and b = x ± δ around a row x: an exact tie on the
		// grids, and a near one for floats or with b one ulp off, where
		// rounding decides the order.
		for t := 0; t < 16; t++ {
			a, b := r.Intn(k), r.Intn(k)
			if a == b {
				continue
			}
			x := make([]float32, dim)
			for j := range x {
				base, delta := float32(64+r.Intn(128)), float32(r.Intn(64))
				if scale == 0 {
					base, delta = base/256, delta/256+r.Float32()/1024
				} else {
					base, delta = base*scale, delta*scale
				}
				x[j] = base
				cents[a*dim+j] = base + delta
				cents[b*dim+j] = base - delta
			}
			if t%2 == 1 {
				j := b*dim + r.Intn(dim)
				cents[j] = math.Nextafter32(cents[j], float32(math.Inf(1)))
			}
			rows = append(rows, x...)
		}
	}
	return cents, rows
}

// TestAssignAllMatchesTileArgmin: on every kernel tier, AssignAll returns,
// row for row, exactly the assignment of tileArgmin, over codebooks of 1 to
// 300 centroids (multiples of 16 and not), dims around the panel width,
// magnitudes from 1e-20 to 255, duplicate centroids, rows on a centroid
// and rows on the bisector of two — and rows holding NaN, ±Inf or values
// too large for the error window, which take the exact path.
func TestAssignAllMatchesTileArgmin(t *testing.T) {
	defer vec.SetLevel(vec.CurrentLevel())
	r := rand.New(rand.NewSource(54))
	ks := []int{2, 15, 16, 31, 33, 64, 100, 255, 256}
	scales := []float32{0, 0x1p-66, 0x1p-10, 1}
	for di, dim := range []int{1, 3, 15, 16, 17, 31, 32, 33, 64, 100, 128, 200} {
		for _, k := range []int{1, 17, 300, ks[di%len(ks)], ks[(di+4)%len(ks)]} {
			for si, scale := range scales {
				if dim >= 100 && k >= 255 && si%2 == 1 {
					continue // keep the largest shapes to two scales
				}
				cents, rows := assignCorpus(r, dim, k, scale)
				res := &Result{K: k, Dim: dim, Centroids: cents}
				if si == 0 {
					odd := make([]float32, 4*dim)
					odd[0] = float32(math.NaN())
					odd[dim+dim/2] = float32(math.Inf(1))
					odd[2*dim] = float32(math.Inf(-1))
					odd[3*dim] = 1e19
					rows = append(rows, odd...)
				}
				for _, lvl := range vec.Levels() {
					vec.SetLevel(lvl)
					want := tileArgmin(res, rows)
					got := make([]int, len(want))
					res.AssignAll(rows, got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v dim %d K %d scale %g row %d: AssignAll = %d, tile argmin %d", lvl, dim, k, scale, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	// A non-finite centroid sends every row down the exact path.
	cents, rows := assignCorpus(r, 8, 40, 1)
	cents[13*8+2] = float32(math.Inf(1))
	res := &Result{K: 40, Dim: 8, Centroids: cents}
	for _, lvl := range vec.Levels() {
		vec.SetLevel(lvl)
		want := tileArgmin(res, rows)
		got := make([]int, len(want))
		res.AssignAll(rows, got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v Inf centroid row %d: AssignAll = %d, tile argmin %d", lvl, i, got[i], want[i])
			}
		}
	}
}

// TestAssignAllUsesPanelKernel is the kernel guard for the assignment
// step: rows clear of any tie are settled by the panel kernel, with two
// batch-kernel dispatches per block of assignRows rows (the rows' norms
// and the panel scores), no per-row dispatch and no exact re-check. A fall-back to one tile dispatch per
// few rows plus a scalar argmin, or to per-row kernels, fails it.
func TestAssignAllUsesPanelKernel(t *testing.T) {
	const dim, k, n = 24, 300, 3*assignRows + 5
	r := rand.New(rand.NewSource(7))
	res := &Result{K: k, Dim: dim, Centroids: make([]float32, k*dim)}
	for i := range res.Centroids {
		res.Centroids[i] = float32(r.NormFloat64() * 10)
	}
	data := make([]float32, 0, n*dim)
	for i := 0; i < n; i++ {
		c := res.Centroid(r.Intn(k))
		for _, v := range c {
			data = append(data, v+float32(r.NormFloat64()*0.01))
		}
	}
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	vec.ResetDispatchCounts()
	assign := make([]int, n)
	res.AssignAll(data, assign)
	if got, want := vec.BatchDispatchTotal(), int64(2*((n+assignRows-1)/assignRows)); got != want {
		t.Errorf("AssignAll made %d batch-kernel dispatches, want %d (per %d-row block, one for the rows' norms and one panel dispatch)", got, want, assignRows)
	}
	if got := vec.DispatchCount(vec.CurrentLevel()); got != 0 {
		t.Errorf("AssignAll made %d per-row kernel dispatches, want 0", got)
	}
	for i, c := range assign {
		x := data[i*dim : (i+1)*dim]
		if want, _ := res.Assign(x); c != want {
			t.Fatalf("row %d: AssignAll = %d, Assign %d", i, c, want)
		}
	}
}

// Assign returns the index of the centroid closest to v (the quantizer z(v)
// of Sec. 3.1) and the squared distance to it.
func (r *Result) Assign(v []float32) (int, float32) { return Nearest(v, r.Centroids, r.Dim) }
