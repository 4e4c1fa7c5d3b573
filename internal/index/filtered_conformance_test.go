package index_test

import (
	"math/rand"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/dataset"
	"vectordb/internal/gpu"
	"vectordb/internal/index"
	_ "vectordb/internal/index/all"
	"vectordb/internal/index/ivf"
	"vectordb/internal/index/sq8h"
	"vectordb/internal/metric"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// filteredGroundTruth is the filter-then-scan oracle: exact distances over
// exactly the rows the bitset keeps.
func filteredGroundTruth(d *dataset.Dataset, q []float32, k int, m vec.Metric, keep func(int) bool) []topk.Result {
	dist := m.Dist()
	h := topk.New(k)
	for i := 0; i < d.N; i++ {
		if keep(i) {
			h.Push(int64(i), dist(q, d.Row(i)))
		}
	}
	return h.Results()
}

// filteredSels are the selectivity points of the conformance matrix.
var filteredSels = []float64{0.01, 0.10, 0.50}

// filteredFloor is the recall floor for one index type at one selectivity.
// FLAT and full-probe IVF_FLAT run exact scans over the survivors, so they
// must be perfect; graph indexes carry the ISSUE's ≥0.95 contract down to
// 1% selectivity; quantized and tree indexes are sanity-checked where their
// structure permits (ANNOY's candidate set is drawn before filtering, so
// sparse filters legitimately starve it).
func filteredFloor(name string, sel float64) float64 {
	switch name {
	case "FLAT", "IVF_FLAT":
		return 1.0
	case "HNSW", "RNSG":
		return 0.95
	case "IVF_SQ8", "SQ8H":
		if sel >= 0.10 {
			return 0.80
		}
		return 0.50
	case "IVF_PQ":
		if sel >= 0.50 {
			return 0.20
		}
		return 0
	case "ANNOY":
		if sel >= 0.50 {
			return 0.70
		}
		return 0
	}
	return 0
}

// buildFilteredMatrix builds every registered index plus the unregistered
// SQ8H hybrid, all with generous accuracy budgets.
func buildFilteredMatrix(t *testing.T, d *dataset.Dataset, m vec.Metric) map[string]index.Index {
	t.Helper()
	out := map[string]index.Index{}
	for _, name := range index.Names() {
		params := map[string]string{"iter": "6", "nlist": "16"}
		b, err := index.NewBuilder(name, m, d.Dim, params)
		if err != nil {
			t.Fatalf("%s: NewBuilder: %v", name, err)
		}
		idx, err := b.Build(d.Data, nil)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		out[name] = idx
	}
	hb, err := sq8h.NewBuilder(m, d.Dim, ivf.Builder{Nlist: 16, MaxIter: 6}, sq8h.Config{Device: gpu.NewDevice(0, gpu.Config{})})
	if err != nil {
		t.Fatalf("SQ8H: NewBuilder: %v", err)
	}
	hidx, err := hb.Build(d.Data, nil)
	if err != nil {
		t.Fatalf("SQ8H: Build: %v", err)
	}
	out["SQ8H"] = hidx
	return out
}

// TestFilteredConformance is the filtered ground-truth suite: every index
// type × metric × selectivity against the exact filter-then-scan oracle.
// Three invariants hold everywhere: no filtered-out ID is ever returned,
// results are sorted, and result count never exceeds min(k, matched).
// Recall floors then apply per index type.
func TestFilteredConformance(t *testing.T) {
	const k = 10
	for _, m := range []vec.Metric{vec.L2, vec.IP} {
		d := dataset.DeepLike(3000, 1)
		qs := dataset.Queries(d, 5, 2)
		indexes := buildFilteredMatrix(t, d, m)
		for _, sel := range filteredSels {
			// Deterministic pseudo-random keep set at the target selectivity.
			r := rand.New(rand.NewSource(int64(sel * 1e4)))
			keepRow := make([]bool, d.N)
			matched := 0
			for i := range keepRow {
				if r.Float64() < sel {
					keepRow[i] = true
					matched++
				}
			}
			keep := func(i int) bool { return keepRow[i] }
			bits := bitset.New(d.N)
			for i, ok := range keepRow {
				if ok {
					bits.Set(i)
				}
			}
			for name, idx := range indexes {
				p := index.SearchParams{K: k, Nprobe: 16, Ef: 512, SearchL: 512, Bits: bits}
				var recallSum float64
				for qi := 0; qi < 5; qi++ {
					q := qs[qi*d.Dim : (qi+1)*d.Dim]
					res := idx.Search(q, p)
					want := min(k, matched)
					if len(res) > want {
						t.Fatalf("%s/%v sel=%.2f: %d results for %d matched", name, m, sel, len(res), matched)
					}
					for i, rr := range res {
						if !keep(int(rr.ID)) {
							t.Fatalf("%s/%v sel=%.2f: returned filtered-out id %d", name, m, sel, rr.ID)
						}
						if i > 0 && rr.Distance < res[i-1].Distance {
							t.Fatalf("%s/%v sel=%.2f: results unsorted at %d", name, m, sel, i)
						}
					}
					gt := filteredGroundTruth(d, q, k, m, keep)
					recallSum += metric.Recall(gt, res)
				}
				if floor := filteredFloor(name, sel); floor > 0 {
					if got := recallSum / 5; got < floor {
						t.Errorf("%s/%v sel=%.2f: filtered recall %.3f < floor %.3f", name, m, sel, got, floor)
					}
				}
			}
		}
	}
}

// TestFilteredEmptyBitset: an all-clear bitset must return no results from
// any index — and must not hang graph traversals or L-doubling loops.
func TestFilteredEmptyBitset(t *testing.T) {
	d := dataset.DeepLike(800, 25)
	q := dataset.Queries(d, 1, 26)
	bits := bitset.New(d.N)
	for name, idx := range buildFilteredMatrix(t, d, vec.L2) {
		res := idx.Search(q, index.SearchParams{K: 5, Nprobe: 16, Ef: 128, SearchL: 128, Bits: bits})
		if len(res) != 0 {
			t.Errorf("%s: empty bitset returned %d results", name, len(res))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
