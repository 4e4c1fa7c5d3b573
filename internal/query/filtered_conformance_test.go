package query

import (
	"strconv"
	"testing"

	"vectordb/internal/dataset"
	_ "vectordb/internal/index/all"
	"vectordb/internal/obs"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// inRange reports whether id satisfies rc on tab — the zero-violation
// invariant every strategy must uphold.
func inRange(tab *Table, rc RangeCond, id int64) bool {
	v, ok := tab.AttrValue(rc.Attr, id)
	return ok && v >= rc.Lo && v <= rc.Hi
}

// strategyMatrix runs strategies A/B/C/D/E for one table+range and returns
// the results keyed by strategy letter. E runs over a fresh partitioning.
func strategyMatrix(t *testing.T, tab *Table, parts []Partition, rc RangeCond, vc VecCond) map[string][]topk.Result {
	t.Helper()
	out := map[string][]topk.Result{
		"A": StrategyA(tab, rc, vc),
		"B": StrategyB(tab, rc, vc),
		"C": StrategyC(tab, rc, vc),
	}
	resD, _ := StrategyD(tab, rc, vc, DefaultCostModel())
	out["D"] = resD
	if parts != nil {
		out["E"] = StrategyE(parts, rc, vc, DefaultCostModel())
	}
	return out
}

// deepFilterTable builds a table over uniform (DeepLike) vectors, where
// graph indexes navigate well, with the same uniform attribute in
// [0, 10000) the Fig. 14 harness uses.
func deepFilterTable(t testing.TB, n int, indexType string, params map[string]string) *Table {
	t.Helper()
	d := dataset.DeepLike(n, 1)
	attrs := dataset.Attributes(n, 10000, 2)
	tab, err := NewTable(vec.L2, d.Dim, d.Data, nil, [][]int64{attrs})
	if err != nil {
		t.Fatal(err)
	}
	if indexType != "" {
		if err := tab.BuildIndex(indexType, params); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// strategyFloor is the mean-recall floor for one strategy on one index
// type. Strategy A never touches the index, so it is exact everywhere; B/C/D
// on FLAT or full-probe IVF are exact; graph indexes carry an approximate
// floor (RNSG's bootstrap graph is weaker than HNSW's at small pools); E
// delegates to per-partition indexes probing their structural minimum, so
// it gets the loosest bound.
func strategyFloor(indexType, strat string) float64 {
	if strat == "A" {
		return 0.999
	}
	if strat == "E" {
		// E prunes to overlapping partitions, each probing its structural
		// minimum — the paper's deliberate recall-for-speed trade.
		return 0.60
	}
	switch indexType {
	case "", "IVF_FLAT":
		return 0.999
	case "HNSW":
		return 0.85
	default: // RNSG
		return 0.70
	}
}

// buildParamsFor returns per-index build parameters for the strategy
// matrix: full-size kNN bootstrap for RNSG (its default pool is tuned for
// larger collections), kmeans budgets for IVF.
func buildParamsFor(indexType string) map[string]string {
	switch indexType {
	case "IVF_FLAT":
		return map[string]string{"nlist": "32", "iter": "4"}
	case "RNSG":
		return map[string]string{"knn": "60", "l": "300", "r": "48"}
	}
	return nil
}

// TestStrategyFilteredConformance: every strategy × index type against the
// filter-then-scan oracle over a Table. Two contracts: no strategy ever
// returns a filtered-out ID (hard invariant, any index, any query), and
// mean recall over the query set clears a per-strategy/per-index floor.
func TestStrategyFilteredConformance(t *testing.T) {
	const n, k, nq = 2000, 10, 5
	ranges := [][2]int64{
		{0, 9999},    // ~100%
		{0, 4999},    // ~50%
		{1000, 1999}, // ~10%
		{400, 499},   // ~1%
	}
	for _, indexType := range []string{"", "IVF_FLAT", "HNSW", "RNSG"} {
		tab := deepFilterTable(t, n, indexType, buildParamsFor(indexType))
		parts, err := tab.PartitionByAttr(0, 4, indexType, buildParamsFor(indexType))
		if err != nil {
			t.Fatal(err)
		}
		d := dataset.DeepLike(n, 1)
		qs := dataset.Queries(d, nq, 9)
		for _, rng := range ranges {
			rc := RangeCond{Attr: 0, Lo: rng[0], Hi: rng[1]}
			recallSum := map[string]float64{}
			for qi := 0; qi < nq; qi++ {
				q := qs[qi*d.Dim : (qi+1)*d.Dim]
				// Full probe on IVF (nprobe = nlist) so scan pushdown is exact.
				vc := VecCond{Field: 0, Query: q, K: k, Nprobe: 32}
				want := exactFiltered(tab, rc, vc)
				for strat, got := range strategyMatrix(t, tab, Partitions(parts), rc, vc) {
					for i, r := range got {
						if !inRange(tab, rc, r.ID) {
							t.Fatalf("%s/%s range %v: filtered-out id %d returned", indexType, strat, rng, r.ID)
						}
						if i > 0 && r.Distance < got[i-1].Distance {
							t.Fatalf("%s/%s range %v: unsorted at %d", indexType, strat, rng, i)
						}
					}
					if len(got) > len(want) {
						t.Fatalf("%s/%s range %v: %d results, oracle has %d", indexType, strat, rng, len(got), len(want))
					}
					recallSum[strat] += recallOf(want, got)
				}
			}
			for strat, sum := range recallSum {
				floor := strategyFloor(indexType, strat)
				if r := sum / nq; r < floor {
					t.Errorf("%s/%s range %v: mean recall %.3f < %.3f", indexType, strat, rng, r, floor)
				}
			}
		}
	}
}

// TestSelectivitySweepModes sweeps selectivity 0.1%–99% through strategy B
// on a pushdown Table and asserts the dense/sparse crossover is what the
// trace annotations claim: filter_mode=sparse below the 10% threshold,
// dense at or above it, and filter_selectivity within rounding of the true
// match fraction. Results stay exact throughout (FLAT index).
func TestSelectivitySweepModes(t *testing.T) {
	const n, k = 4000, 10
	tab := filterTable(t, n, "")
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: n, Data: tab.data}, 1, 11)
	for _, sel := range []float64{0.001, 0.005, 0.01, 0.05, 0.09, 0.12, 0.25, 0.50, 0.90, 0.99} {
		hi := int64(sel*10000) - 1
		if hi < 0 {
			hi = 0
		}
		rc := RangeCond{Attr: 0, Lo: 0, Hi: hi}
		tr := obs.NewQueryRecord("sweep")
		vc := VecCond{Field: 0, Query: q, K: k, Trace: tr}
		got := StrategyB(tab, rc, vc)
		want := exactFiltered(tab, rc, vc)
		if r := recallOf(want, got); r < 0.999 {
			t.Errorf("sel=%.3f: recall %.3f", sel, r)
		}
		matched := tab.CountRange(0, rc.Lo, rc.Hi)
		trueSel := float64(matched) / float64(n)
		wantMode := "sparse"
		if trueSel >= 0.10 {
			wantMode = "dense"
		}
		if mode, ok := tr.Attr("filter_mode"); !ok || mode != wantMode {
			t.Errorf("sel=%.3f (true %.4f): filter_mode=%q, want %q", sel, trueSel, mode, wantMode)
		}
		selStr, ok := tr.Attr("filter_selectivity")
		if !ok {
			t.Fatalf("sel=%.3f: filter_selectivity missing", sel)
		}
		gotSel, err := strconv.ParseFloat(selStr, 64)
		if err != nil || gotSel < trueSel-0.0001 || gotSel > trueSel+0.0001 {
			t.Errorf("sel=%.3f: filter_selectivity=%q, true %.4f", sel, selStr, trueSel)
		}
		if strat, _ := tr.Attr("filter_strategy"); strat != StratB {
			t.Errorf("sel=%.3f: filter_strategy=%q", sel, strat)
		}
	}
}

// TestSelectivitySweepGraphMode: on a graph index the pushed filter is
// evaluated by filtered traversal, and the trace must say so.
func TestSelectivitySweepGraphMode(t *testing.T) {
	tab := filterTable(t, 1000, "HNSW")
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 1000, Data: tab.data}, 1, 12)
	tr := obs.NewQueryRecord("sweep")
	rc := RangeCond{Attr: 0, Lo: 0, Hi: 4999}
	got := StrategyB(tab, rc, vecCondTraced(q, 10, tr))
	if len(got) == 0 {
		t.Fatal("no results")
	}
	for _, r := range got {
		if !inRange(tab, rc, r.ID) {
			t.Fatalf("graph mode returned filtered-out id %d", r.ID)
		}
	}
	if mode, _ := tr.Attr("filter_mode"); mode != "graph" {
		t.Errorf("filter_mode=%q on HNSW, want graph", mode)
	}
}

func vecCondTraced(q []float32, k int, tr *obs.QueryRecord) VecCond {
	return VecCond{Field: 0, Query: q, K: k, Trace: tr}
}

// TestStrategyBPushedAllocs pins strategy B's per-query allocation count on
// a pushdown source. The legacy path allocated a map[int64]struct{} with one
// entry per qualifying row — O(matched) allocations; the pooled-bitset path
// must stay a small constant independent of how many rows match.
func TestStrategyBPushedAllocs(t *testing.T) {
	tab := filterTable(t, 4096, "")
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 4096, Data: tab.data}, 1, 13)
	run := func(rc RangeCond) float64 {
		vc := VecCond{Field: 0, Query: q, K: 10}
		StrategyB(tab, rc, vc) // warm the bitset pool
		return testing.AllocsPerRun(20, func() {
			StrategyB(tab, rc, vc)
		})
	}
	narrow := run(RangeCond{Attr: 0, Lo: 0, Hi: 99}) // ~1% matched
	wide := run(RangeCond{Attr: 0, Lo: 0, Hi: 4999}) // ~50% matched
	full := run(RangeCond{Attr: 0, Lo: 0, Hi: 9999}) // 100% matched
	const ceiling = 24                               // small constant, not O(matched)
	for _, c := range []struct {
		name   string
		allocs float64
	}{{"narrow", narrow}, {"wide", wide}, {"full", full}} {
		if c.allocs > ceiling {
			t.Errorf("%s: %.0f allocs/query, want ≤ %d", c.name, c.allocs, ceiling)
		}
	}
	// ~2000 extra matched rows must not show up as extra allocations.
	if wide > narrow+8 || full > narrow+8 {
		t.Errorf("allocs scale with matched rows: narrow=%.0f wide=%.0f full=%.0f", narrow, wide, full)
	}
}
