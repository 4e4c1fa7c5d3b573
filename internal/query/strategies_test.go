package query

import (
	"math/rand"
	"testing"

	"vectordb/internal/dataset"
	_ "vectordb/internal/index/all"
	"vectordb/internal/metric"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// filterTable builds a table over clustered vectors with one uniform
// attribute in [0, 10000), matching the Fig. 14 setup.
func filterTable(t testing.TB, n int, indexType string) *Table {
	t.Helper()
	d := dataset.SIFTLike(n, 1)
	attrs := dataset.Attributes(n, 10000, 2)
	tab, err := NewTable(vec.L2, d.Dim, d.Data, nil, [][]int64{attrs})
	if err != nil {
		t.Fatal(err)
	}
	if indexType != "" {
		if err := tab.BuildIndex(indexType, map[string]string{"nlist": "32", "iter": "4"}); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// exactFiltered is the brute-force reference for attribute filtering.
func exactFiltered(tab *Table, rc RangeCond, vc VecCond) []topk.Result {
	h := topk.New(vc.K)
	for _, id := range tab.ids {
		v, _ := tab.AttrValue(rc.Attr, id)
		if v < rc.Lo || v > rc.Hi {
			continue
		}
		d, _ := tab.DistanceByID(vc.Field, vc.Query, id)
		h.Push(id, d)
	}
	return h.Results()
}

func recallOf(truth, got []topk.Result) float64 {
	return metric.Recall(truth, got)
}

func TestStrategyAIsExact(t *testing.T) {
	tab := filterTable(t, 2000, "")
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 2000, Data: tab.data}, 1, 3)
	rc := RangeCond{Attr: 0, Lo: 2000, Hi: 7000}
	vc := VecCond{Field: 0, Query: q, K: 10}
	got := StrategyA(tab, rc, vc)
	want := exactFiltered(tab, rc, vc)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("result %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestStrategiesAgreeOnExactIndex(t *testing.T) {
	// With a FLAT index every strategy must return the exact answer.
	tab := filterTable(t, 1500, "")
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 1500, Data: tab.data}, 1, 4)
	for _, rng := range [][2]int64{{0, 9999}, {100, 5000}, {9000, 9999}, {5000, 5100}} {
		rc := RangeCond{Attr: 0, Lo: rng[0], Hi: rng[1]}
		vc := VecCond{Field: 0, Query: q, K: 10}
		want := exactFiltered(tab, rc, vc)
		for name, got := range map[string][]topk.Result{
			"A": StrategyA(tab, rc, vc),
			"B": StrategyB(tab, rc, vc),
			"C": StrategyC(tab, rc, vc),
		} {
			if r := recallOf(want, got); r < 0.999 {
				t.Errorf("range %v strategy %s: recall %.3f", rng, name, r)
			}
		}
		resD, chosen := StrategyD(tab, rc, vc, DefaultCostModel())
		if r := recallOf(want, resD); r < 0.999 {
			t.Errorf("range %v strategy D (%s): recall %.3f", rng, chosen, r)
		}
	}
}

func TestStrategyBEmptyPredicate(t *testing.T) {
	tab := filterTable(t, 100, "")
	vc := VecCond{Field: 0, Query: make([]float32, 128), K: 5}
	if got := StrategyB(tab, RangeCond{Attr: 0, Lo: 50000, Hi: 60000}, vc); got != nil {
		t.Fatalf("empty predicate returned %v", got)
	}
}

func TestStrategyCRetriesUntilK(t *testing.T) {
	// Highly selective predicate: C must re-fetch until it has k results.
	tab := filterTable(t, 2000, "")
	q := make([]float32, 128)
	rc := RangeCond{Attr: 0, Lo: 0, Hi: 200} // ~2% pass
	vc := VecCond{Field: 0, Query: q, K: 10}
	got := StrategyC(tab, rc, vc)
	want := exactFiltered(tab, rc, vc)
	if len(got) != len(want) {
		t.Fatalf("C returned %d results, want %d", len(got), len(want))
	}
	if r := recallOf(want, got); r < 0.999 {
		t.Fatalf("C recall %.3f after retries", r)
	}
}

func TestCostModelPicksAWhenHighlySelective(t *testing.T) {
	tab := filterTable(t, 5000, "")
	m := DefaultCostModel()
	vc := VecCond{Field: 0, Query: make([]float32, 128), K: 10}
	// ~0.5% pass: A scans ~25 vectors, B probes ~400.
	if got := m.Choose(tab, RangeCond{Attr: 0, Lo: 0, Hi: 50}, vc); got != StratA {
		t.Errorf("highly selective predicate chose %s, want A", got)
	}
	// ~95% pass: C is feasible and cheapest.
	if got := m.Choose(tab, RangeCond{Attr: 0, Lo: 0, Hi: 9500}, vc); got != StratC {
		t.Errorf("permissive predicate chose %s, want C", got)
	}
	// ~30% pass: B.
	if got := m.Choose(tab, RangeCond{Attr: 0, Lo: 0, Hi: 3000}, vc); got != StratB {
		t.Errorf("moderate predicate chose %s, want B", got)
	}
}

func TestStrategyEMatchesExact(t *testing.T) {
	tab := filterTable(t, 3000, "")
	parts, err := tab.PartitionByAttr(0, 6, "FLAT", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 6 {
		t.Fatalf("%d partitions, want 6", len(parts))
	}
	// Partitions must be disjoint in attribute range and cover all rows.
	total := 0
	for i := 1; i < len(parts); i++ {
		_, prevHi, _ := parts[i-1].AttrBounds(0)
		lo, _, _ := parts[i].AttrBounds(0)
		if lo <= prevHi {
			t.Fatalf("partition %d overlaps previous: lo=%d prevHi=%d", i, lo, prevHi)
		}
	}
	for _, p := range parts {
		total += p.TotalRows()
	}
	if total != 3000 {
		t.Fatalf("partitions cover %d rows, want 3000", total)
	}
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 3000, Data: tab.data}, 1, 5)
	for _, rng := range [][2]int64{{0, 9999}, {50, 250}, {4000, 6000}, {9900, 9999}} {
		rc := RangeCond{Attr: 0, Lo: rng[0], Hi: rng[1]}
		vc := VecCond{Field: 0, Query: q, K: 10}
		want := exactFiltered(tab, rc, vc)
		got := StrategyE(Partitions(parts), rc, vc, DefaultCostModel())
		if r := recallOf(want, got); r < 0.999 {
			t.Errorf("range %v: strategy E recall %.3f", rng, r)
		}
	}
}

func TestStrategyEWithRealIndexHighRecall(t *testing.T) {
	tab := filterTable(t, 4000, "IVF_FLAT")
	parts, err := tab.PartitionByAttr(0, 4, "IVF_FLAT", map[string]string{"nlist": "16", "iter": "4"})
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 4000, Data: tab.data}, 1, 6)
	rc := RangeCond{Attr: 0, Lo: 1000, Hi: 9000}
	vc := VecCond{Field: 0, Query: q, K: 10, Nprobe: 8}
	want := exactFiltered(tab, rc, vc)
	got := StrategyE(Partitions(parts), rc, vc, DefaultCostModel())
	if r := recallOf(want, got); r < 0.8 {
		t.Errorf("strategy E with IVF recall %.3f", r)
	}
}

func TestPartitionByAttrErrors(t *testing.T) {
	tab := filterTable(t, 100, "")
	if _, err := tab.PartitionByAttr(0, 0, "", nil); err == nil {
		t.Error("rho=0 accepted")
	}
	parts, err := tab.PartitionByAttr(0, 1000, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) > 100 {
		t.Errorf("%d partitions from 100 rows", len(parts))
	}
}

func TestTableErrors(t *testing.T) {
	if _, err := NewTable(vec.L2, 4, []float32{1, 2, 3}, nil, nil); err == nil {
		t.Error("ragged data accepted")
	}
	if _, err := NewTable(vec.L2, 2, []float32{1, 2, 3, 4}, nil, [][]int64{{1}}); err == nil {
		t.Error("short attrs accepted")
	}
	tab, err := NewTable(vec.L2, 2, []float32{1, 2, 3, 4}, []int64{7, 8}, [][]int64{{5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.BuildIndex("NOPE", nil); err == nil {
		t.Error("unknown index type accepted")
	}
	if _, ok := tab.AttrValue(0, 99); ok {
		t.Error("missing id resolved")
	}
	if _, ok := tab.DistanceByID(0, []float32{0, 0}, 99); ok {
		t.Error("missing id resolved")
	}
	if v, ok := tab.AttrValue(0, 8); !ok || v != 6 {
		t.Errorf("AttrValue = %d,%v", v, ok)
	}
}

// Property-ish test: across random ranges, D's choice never loses more than
// trivial recall vs. exact, and E equals D's answer set on a FLAT index.
func TestStrategyDERandomRanges(t *testing.T) {
	tab := filterTable(t, 1200, "")
	parts, err := tab.PartitionByAttr(0, 5, "FLAT", nil)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	q := dataset.Queries(&dataset.Dataset{Dim: 128, N: 1200, Data: tab.data}, 1, 8)
	for trial := 0; trial < 10; trial++ {
		lo := r.Int63n(10000)
		hi := lo + r.Int63n(10000-lo)
		rc := RangeCond{Attr: 0, Lo: lo, Hi: hi}
		vc := VecCond{Field: 0, Query: q, K: 5}
		want := exactFiltered(tab, rc, vc)
		gotD, _ := StrategyD(tab, rc, vc, DefaultCostModel())
		gotE := StrategyE(Partitions(parts), rc, vc, DefaultCostModel())
		if rD := recallOf(want, gotD); rD < 0.999 {
			t.Errorf("trial %d range [%d,%d]: D recall %.3f", trial, lo, hi, rD)
		}
		if rE := recallOf(want, gotE); rE < 0.999 {
			t.Errorf("trial %d range [%d,%d]: E recall %.3f", trial, lo, hi, rE)
		}
	}
}
