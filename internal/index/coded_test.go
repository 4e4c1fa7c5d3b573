package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// codedRows draws n×dim rows of a named shape: "uniform-int" (integers
// 0..127, uniform), "clustered" (SIFT-like: σ 8 around 64 centres drawn in
// [0, 128), clamped to [0, 255]), "head-heavy" (clustered in the first
// vec.HeadDim dims, within ±1 of 64 after them, so a row's code distance
// sits almost all in its head), "uniform" in [-1, 1), "deep" (unit-norm
// Gaussian), "constcol" (uniform with one constant dimension) and "huge"
// (uniform scaled to ±1e30).
func codedRows(r *rand.Rand, shape string, n, dim int) []float32 {
	data := make([]float32, n*dim)
	if shape == "clustered" || shape == "head-heavy" {
		centres := make([]float64, 64*dim)
		for i := range centres {
			centres[i] = r.Float64() * 128
		}
		for i := 0; i < n; i++ {
			c := centres[r.Intn(64)*dim:][:dim]
			for j, x := range c {
				v := min(255, max(0, x+r.NormFloat64()*8))
				if shape == "head-heavy" && j >= vec.HeadDim {
					v = 64 + r.Float64()*2 - 1
				}
				data[i*dim+j] = float32(v)
			}
		}
		return data
	}
	for i := range data {
		switch shape {
		case "uniform-int":
			data[i] = float32(r.Intn(128))
		case "deep":
			data[i] = float32(r.NormFloat64())
		case "huge":
			data[i] = float32((r.Float64()*2 - 1) * 1e30)
		default:
			data[i] = r.Float32()*2 - 1
		}
	}
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		switch {
		case shape == "deep":
			vec.Normalize(row)
		case shape == "constcol" && dim > 1:
			row[dim/2] = 0.25
		}
	}
	return data
}

// codedQueries draws m queries near rows of data, the last far outside
// the grid.
func codedQueries(r *rand.Rand, data []float32, n, dim, m int) []float32 {
	qs := make([]float32, 0, m*dim)
	for i := 0; i < m; i++ {
		row := data[r.Intn(n)*dim:][:dim]
		for j, x := range row {
			switch {
			case i == m-1:
				qs = append(qs, x*3+float32(j%5)*7)
			case i%2 == 1:
				qs = append(qs, x+float32(r.NormFloat64())*x/16)
			default:
				qs = append(qs, x)
			}
		}
	}
	return qs
}

// TestCodedScanMatchesPlainScan: on every kernel tier, ScanCoded returns
// what ScanBlocked does — the same IDs, bit-identical distances, the same
// order — for one query and for a batch, over uniform-integer, clustered,
// uniform, deep-like, constant-dimension and ±1e30 rows, dims 1 to 300, k from 1
// past n, with and without a heap filled beforehand, and under no
// selection, tombstones, a dense and a sparse bitset.
func TestCodedScanMatchesPlainScan(t *testing.T) {
	prev := vec.CurrentLevel()
	defer vec.SetLevel(prev)
	const n, m = 700, 5
	for _, l := range vec.Levels() {
		vec.SetLevel(l)
		r := rand.New(rand.NewSource(int64(l) + 11))
		for _, shape := range []string{"uniform-int", "clustered", "uniform", "deep", "constcol", "huge"} {
			for _, dim := range []int{1, 17, 100, 128, 300} {
				data := codedRows(r, shape, n, dim)
				codes := vec.EncodeCodes(data, dim)
				if codes == nil {
					t.Fatalf("%v %s dim %d: no grid", l, shape, dim)
				}
				ids := make([]int64, n)
				for i := range ids {
					ids[i] = int64(n - i) // IDs run against row order
				}
				qs := codedQueries(r, data, n, dim, m)
				prefill := codedRows(r, shape, 40, dim)
				sels := map[string]Selection{
					"all":        {},
					"tombstones": {Bits: bitsetFor(n, func(i int) bool { return i%97 != 3 })},
					"dense":      {Bits: bitsetFor(n, func(i int) bool { return r.Intn(2) == 0 })},
					"sparse":     {Bits: bitsetFor(n, func(i int) bool { return r.Intn(40) == 0 })},
				}
				for _, k := range []int{1, 10, 100, n + 5} {
					for name, sel := range sels {
						for _, filled := range []bool{false, true} {
							tag := fmt.Sprintf("%v %s dim %d k %d %s filled %v", l, shape, dim, k, name, filled)
							fresh := func() *topk.Heap {
								h := topk.New(k)
								if filled {
									ScanBlocked(h, vec.L2, qs[:dim], prefill, dim, nil, Selection{})
								}
								return h
							}
							want := make([][]topk.Result, m)
							for qi := range want {
								h := fresh()
								ScanBlocked(h, vec.L2, qs[qi*dim:(qi+1)*dim], data, dim, ids, sel)
								want[qi] = h.Results()
							}
							hs := make([]*topk.Heap, m)
							for qi := range hs {
								hs[qi] = fresh()
							}
							ScanCoded(hs, qs, data, codes, ids, sel)
							for qi := range hs {
								identicalResults(t, tag+fmt.Sprintf(" batch q%d", qi), hs[qi].Results(), want[qi])
								h := fresh()
								ScanCoded([]*topk.Heap{h}, qs[qi*dim:(qi+1)*dim], data, codes, ids, sel)
								identicalResults(t, tag+fmt.Sprintf(" q%d", qi), h.Results(), want[qi])
							}
						}
					}
				}
			}
		}
	}
}

// TestHeadScanMatchesPlainScan: where the codes keep a head (dim ≥
// vec.HeadMinDim), ScanCoded returns what ScanBlocked does, bit for bit,
// whether the head prunes most rows (clustered; head-heavy, where a row's
// head S is almost its S, so a threshold the head reads wrong drops true
// neighbours) or next to none (uniform at first, where a block's
// survivors send the next blocks to the full tile and the head is tried
// again after them): dims 127 (no head), 128, 130 and 200,
// a row count off every block and kernel width, batches of 1, 2 and 5
// with a dead query among the five, empty and tight heaps, and no
// selection, dense bits, and tombstones beside a run of fully excluded
// blocks.
func TestHeadScanMatchesPlainScan(t *testing.T) {
	prev := vec.CurrentLevel()
	defer vec.SetLevel(prev)
	const n = 40*ScanBlockRows + 131
	for _, l := range vec.Levels() {
		vec.SetLevel(l)
		r := rand.New(rand.NewSource(int64(l) + 29))
		for _, shape := range []string{"clustered", "head-heavy", "uniform"} {
			for _, dim := range []int{127, 128, 130, 200} {
				data := codedRows(r, shape, n, dim)
				codes := vec.EncodeCodes(data, dim)
				if codes == nil || (codes.Head != nil) != (dim >= vec.HeadMinDim) {
					t.Fatalf("%v %s dim %d: grid %v, head wrong", l, shape, dim, codes != nil)
				}
				qs := codedQueries(r, data, n, dim, 6)[:5*dim] // none far off
				sels := map[string]Selection{
					"all":   {},
					"dense": {Bits: bitsetFor(n, func(i int) bool { return r.Intn(2) == 0 })},
					"masked": {Bits: bitsetFor(n, func(i int) bool {
						return i%89 != 5 && (i < 3*ScanBlockRows || i >= 6*ScanBlockRows)
					})},
				}
				// A tight heap holds, under IDs of its own, the 11th to 30th
				// nearest distances, so its bound is the 20th from the first
				// block on: the collector's bound otherwise lags the k-th
				// distance seen, and a loose threshold hides a head that
				// drops rows it should keep.
				fresh := func(qi int, tight bool) *topk.Heap {
					h := topk.New(10)
					if tight {
						near := topk.New(30)
						ScanBlocked(near, vec.L2, qs[qi*dim:(qi+1)*dim], data, dim, nil, Selection{})
						for _, res := range near.Results()[10:] {
							h.Push(-res.ID, res.Distance)
						}
					}
					return h
				}
				for _, m := range []int{1, 2, 5} {
					for name, sel := range sels {
						for _, tight := range []bool{false, true} {
							tag := fmt.Sprintf("%v %s dim %d m %d %s tight %v", l, shape, dim, m, name, tight)
							hs := make([]*topk.Heap, m)
							for qi := range hs {
								if m < 5 || qi != 2 {
									hs[qi] = fresh(qi, tight)
								}
							}
							ScanCoded(hs, qs[:m*dim], data, codes, nil, sel)
							for qi, h := range hs {
								if h == nil {
									continue
								}
								want := fresh(qi, tight)
								ScanBlocked(want, vec.L2, qs[qi*dim:(qi+1)*dim], data, dim, nil, sel)
								identicalResults(t, fmt.Sprintf("%s q%d", tag, qi), h.Results(), want.Results())
							}
						}
					}
				}
			}
		}
	}
}

// identicalResults fails unless got and want hold the same IDs with
// bit-identical distances in the same order.
func identicalResults(t *testing.T, tag string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Distance) != math.Float32bits(want[i].Distance) {
			t.Fatalf("%s: rank %d is %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// TestCodedScanSkipsDeadQueries: a nil heap in a batch is skipped, and
// the other queries still get their answers.
func TestCodedScanSkipsDeadQueries(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n, dim = 600, 32
	data := codedRows(r, "uniform", n, dim)
	codes := vec.EncodeCodes(data, dim)
	qs := codedQueries(r, data, n, dim, 3)
	hs := []*topk.Heap{topk.New(10), nil, topk.New(10)}
	ScanCoded(hs, qs, data, codes, nil, Selection{})
	for _, qi := range []int{0, 2} {
		want := topk.New(10)
		ScanBlocked(want, vec.L2, qs[qi*dim:(qi+1)*dim], data, dim, nil, Selection{})
		identicalResults(t, fmt.Sprintf("q%d", qi), hs[qi].Results(), want.Results())
	}
}

// TestScanCodedAllocs: the one-query coded scan runs on pooled scratch,
// with the head pass (dim 128) and without it.
func TestScanCodedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool Puts are randomly dropped under -race; alloc pin is meaningless")
	}
	r := rand.New(rand.NewSource(5))
	const n = 2000
	for _, dim := range []int{64, 128} {
		data := codedRows(r, "clustered", n, dim)
		codes := vec.EncodeCodes(data, dim)
		q := codedQueries(r, data, n, dim, 1)
		bits := bitsetFor(n, func(i int) bool { return i%11 != 0 })
		h := topk.New(10)
		for _, sel := range []Selection{{}, {Bits: bits}} {
			scan := func() {
				h.Reset()
				ScanCoded([]*topk.Heap{h}, q, data, codes, nil, sel)
			}
			scan()
			if avg := testing.AllocsPerRun(100, scan); avg > 0.5 {
				t.Fatalf("dim %d bits %v: %v allocs/op, want 0", dim, sel.Bits != nil, avg)
			}
		}
	}
}

// BenchmarkCodedScan: exact top-10 scans of 65,536 × 128 rows, the float
// kernel over every row (plain) against the code pass plus the float
// kernel over its survivors (coded), on clustered (SIFT-like) rows and on
// uniform integers, where few rows are near any query. Each op is one
// query, or one batch of 4 or 16 (coded-m4, coded-m16); the ops cycle over
// 128 queries drawn as scan.flat draws them: a row with each coordinate
// moved by about 1 % of its size.
func BenchmarkCodedScan(b *testing.B) {
	const n, dim, k, nq = 65536, 128, 10, 128
	for _, shape := range []string{"clustered", "uniform-int"} {
		r := rand.New(rand.NewSource(7))
		data := codedRows(r, shape, n, dim)
		codes := vec.EncodeCodes(data, dim)
		qs := make([]float32, 0, nq*dim)
		for i := 0; i < nq; i++ {
			for _, x := range data[r.Intn(n)*dim:][:dim] {
				qs = append(qs, x+float32(r.NormFloat64()*0.01*(math.Abs(float64(x))+1)))
			}
		}
		query := func(it int) []float32 { return qs[it%nq*dim:][:dim] }
		h := topk.New(k)
		b.Run(shape+"/plain", func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				h.Reset()
				ScanBlocked(h, vec.L2, query(it), data, dim, nil, Selection{})
			}
		})
		b.Run(shape+"/coded", func(b *testing.B) {
			hs := []*topk.Heap{h}
			for it := 0; it < b.N; it++ {
				h.Reset()
				ScanCoded(hs, query(it), data, codes, nil, Selection{})
			}
		})
		for _, m := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/coded-m%d", shape, m), func(b *testing.B) {
				hs := make([]*topk.Heap, m)
				for i := range hs {
					hs[i] = topk.New(k)
				}
				for it := 0; it < b.N; it++ {
					for _, h := range hs {
						h.Reset()
					}
					ScanCoded(hs, qs[it*m%nq*dim:][:m*dim], data, codes, nil, Selection{})
				}
			})
		}
		for it := 0; it < nq; it++ {
			got, want := topk.New(k), topk.New(k)
			ScanCoded([]*topk.Heap{got}, query(it), data, codes, nil, Selection{})
			ScanBlocked(want, vec.L2, query(it), data, dim, nil, Selection{})
			if !slices.Equal(got.Results(), want.Results()) {
				b.Fatalf("%s query %d: coded scan differs from the plain scan", shape, it)
			}
		}
	}
}
