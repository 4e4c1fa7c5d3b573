package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"vectordb/internal/colstore"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// fixedProfile builds a deterministic calibration profile with tunable CPU
// and bitset rates, so tests force planner decisions without measuring the
// host machine.
func fixedProfile(mutate func(*plan.Profile)) *plan.Profile {
	kernel := map[string]float64{}
	for _, l := range vec.Levels() {
		kernel[l.String()] = 8e9
	}
	p := &plan.Profile{
		Fingerprint:      plan.Fingerprint(),
		GOMAXPROCS:       8,
		KernelDimsPerSec: kernel,
		SQ8DimsPerSec:    16e9,
		RowOverheadNs:    30,
		RowNsPerDim:      0.5,
		LookupNs:         40,
		BitsetNsPerRow:   1.2,
		BitsetNsPerMatch: 20,
	}
	if mutate != nil {
		mutate(p)
	}
	return p
}

func planTestCollection(t *testing.T, n int, prof *plan.Profile) (*Collection, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	cfg.Planner = plan.New(plan.Config{Obs: reg, Profile: prof})
	c, err := NewCollection("plan", testSchema(8), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Insert(mkEntities(n, 8, 42)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, reg
}

func resultIDs(res []topk.Result) []int64 {
	ids := make([]int64, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestSearchTracePlanAnnotation: every planned search trace carries the
// plan= venue the snapshot executes on and its estimate, and the decision
// is counted under that venue. A FLAT index is an exhaustive scan, so a
// FLAT-indexed collection plans flat_cpu like an unindexed one.
func TestSearchTracePlanAnnotation(t *testing.T) {
	cases := []struct {
		name      string
		indexType string // "" leaves the segments unindexed
		want      plan.Venue
	}{
		{"unindexed", "", plan.VenueFlatCPU},
		{"flat_index", "FLAT", plan.VenueFlatCPU},
		{"ivf_index", "IVF_FLAT", plan.VenueIVFCPU},
		{"ivf_sq8_index", "IVF_SQ8", plan.VenueIVFCPU},
		{"ivf_pq_index", "IVF_PQ", plan.VenueIVFCPU},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, reg := planTestCollection(t, 300, fixedProfile(nil))
			if tc.indexType != "" {
				if err := c.BuildIndex("v", tc.indexType, map[string]string{"nlist": "4"}); err != nil {
					t.Fatal(err)
				}
			}
			tr := obs.NewTrace("search")
			query := mkEntities(1, 8, 7)[0].Vectors[0]
			if _, err := c.Search(query, SearchOptions{K: 5, Trace: tr}); err != nil {
				t.Fatal(err)
			}
			sum := tr.Summary()
			if choice, ok := sum.Attr("plan"); !ok || choice != string(tc.want) {
				t.Errorf("plan = %q (present=%v), want %s", choice, ok, tc.want)
			}
			if est, ok := sum.Attr("plan_est_ns"); !ok || est == "0" {
				t.Errorf("plan_est_ns = %q, want a positive estimate", est)
			}
			if got := reg.Counter("vectordb_plan_decisions_total", "decision", string(tc.want)).Value(); got != 1 {
				t.Errorf("vectordb_plan_decisions_total{decision=%q} = %d, want 1", tc.want, got)
			}
		})
	}
}

// TestFilteredPlanTrace: the filtered path's trace carries the planner's
// strategy decision, consistent with the filter_strategy annotation.
func TestFilteredPlanTrace(t *testing.T) {
	// Bitset compile priced absurdly expensive: prefilter must win.
	expensiveCompile := fixedProfile(func(p *plan.Profile) { p.BitsetNsPerRow = 1e6 })
	c, _ := planTestCollection(t, 300, expensiveCompile)
	query := mkEntities(1, 8, 7)[0].Vectors[0]
	tr := obs.NewTrace("filtered")
	if _, err := c.SearchFiltered(query, "price", 0, 500, SearchOptions{K: 5, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	choice, _ := sum.Attr("plan")
	strat, _ := sum.Attr("filter_strategy")
	if choice != string(plan.StrategyPrefilter) || strat != "A" {
		t.Errorf("plan=%q filter_strategy=%q, want prefilter/A", choice, strat)
	}

	// And with compile priced normally but the exact scan absurd, pushdown.
	expensiveScan := fixedProfile(func(p *plan.Profile) { p.RowOverheadNs = 1e6 })
	c2, _ := planTestCollection(t, 300, expensiveScan)
	tr2 := obs.NewTrace("filtered")
	if _, err := c2.SearchFiltered(query, "price", 0, 500, SearchOptions{K: 5, Trace: tr2}); err != nil {
		t.Fatal(err)
	}
	sum2 := tr2.Summary()
	choice2, _ := sum2.Attr("plan")
	strat2, _ := sum2.Attr("filter_strategy")
	if choice2 != string(plan.StrategyPushdown) || strat2 != "B" {
		t.Errorf("plan=%q filter_strategy=%q, want pushdown/B", choice2, strat2)
	}
}

// TestFilteredPlanResultParity: both strategies return the same result
// set for the same query — the planner only moves the crossover.
func TestFilteredPlanResultParity(t *testing.T) {
	query := mkEntities(1, 8, 7)[0].Vectors[0]
	run := func(prof *plan.Profile) []int64 {
		c, _ := planTestCollection(t, 400, prof)
		res, err := c.SearchFiltered(query, "price", 1000, 6000, SearchOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		return resultIDs(res)
	}
	a := run(fixedProfile(func(p *plan.Profile) { p.BitsetNsPerRow = 1e6 })) // forces A
	b := run(fixedProfile(func(p *plan.Profile) { p.RowOverheadNs = 1e6 }))  // forces B
	if len(a) != len(b) {
		t.Fatalf("strategy A returned %d ids, B %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("strategies disagree: %v vs %v", a, b)
		}
	}
}

// TestSearchPredPlanned: enumerable predicates take the prefilter path
// when selective (no bitset compiled), arbitrary trees always push down,
// and results match between the two venues.
func TestSearchPredPlanned(t *testing.T) {
	query := mkEntities(1, 8, 7)[0].Vectors[0]
	pred := colstore.RangePred{Attr: 0, Lo: 1000, Hi: 6000}

	cA, _ := planTestCollection(t, 400, fixedProfile(func(p *plan.Profile) { p.BitsetNsPerRow = 1e6 }))
	trA := obs.NewTrace("pred")
	resA, err := cA.SearchPred(query, pred, SearchOptions{K: 10, Trace: trA})
	if err != nil {
		t.Fatal(err)
	}
	if strat, _ := trA.Summary().Attr("filter_strategy"); strat != "A" {
		t.Errorf("selective enumerable pred: filter_strategy=%q, want A", strat)
	}

	cB, _ := planTestCollection(t, 400, fixedProfile(func(p *plan.Profile) { p.RowOverheadNs = 1e6 }))
	trB := obs.NewTrace("pred")
	resB, err := cB.SearchPred(query, pred, SearchOptions{K: 10, Trace: trB})
	if err != nil {
		t.Fatal(err)
	}
	if strat, _ := trB.Summary().Attr("filter_strategy"); strat != "B" {
		t.Errorf("pushdown-priced pred: filter_strategy=%q, want B", strat)
	}

	a, b := resultIDs(resA), resultIDs(resB)
	if len(a) != len(b) {
		t.Fatalf("pred strategies returned different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pred strategies disagree: %v vs %v", a, b)
		}
	}

	// An and-tree cannot be enumerated: even with the compile priced
	// absurdly, the planner records pushdown and the pushdown runs.
	trTree := obs.NewTrace("pred")
	tree := colstore.AndPred{Preds: []colstore.Pred{pred}}
	if _, err := cA.SearchPred(query, tree, SearchOptions{K: 10, Trace: trTree}); err != nil {
		t.Fatal(err)
	}
	sum := trTree.Summary()
	if choice, _ := sum.Attr("plan"); choice != string(plan.StrategyPushdown) {
		t.Errorf("and-tree plan=%q, want pushdown", choice)
	}
	if strat, _ := sum.Attr("filter_strategy"); strat != "B" {
		t.Errorf("and-tree filter_strategy=%q, want B", strat)
	}
}

// TestBatchPlanAnnotation: the explicit batch entry plans the whole batch
// as one shape and stamps the venue into the trace.
func TestBatchPlanAnnotation(t *testing.T) {
	c, _ := planTestCollection(t, 300, fixedProfile(nil))
	queries := make([][]float32, 4)
	for i := range queries {
		queries[i] = mkEntities(1, 8, int64(i+9))[0].Vectors[0]
	}
	tr := obs.NewTrace("batch")
	if _, err := c.SearchBatchCtx(context.Background(), queries, SearchOptions{K: 5, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	choice, ok := tr.Summary().Attr("plan")
	if !ok || choice == "" {
		t.Fatal("batch trace missing plan=")
	}
}

// TestPlanMispredictCounted: a wildly wrong estimate lands in the
// mispredict counter under the decision's label.
func TestPlanMispredictCounted(t *testing.T) {
	reg := obs.NewRegistry()
	p := plan.New(plan.Config{Obs: reg, Profile: fixedProfile(nil)})
	d := plan.Decision{Venue: plan.VenueFlatCPU, Est: time.Millisecond}
	p.Observe(d, 500*time.Millisecond)
	if got := reg.Counter("vectordb_plan_mispredict_total", "decision", "flat_cpu").Value(); got != 1 {
		t.Errorf("mispredict counter = %d, want 1", got)
	}
	p.Observe(d, time.Millisecond)
	if got := reg.Counter("vectordb_plan_mispredict_total", "decision", "flat_cpu").Value(); got != 1 {
		t.Errorf("accurate observation counted as mispredict: %d", got)
	}
}

// TestCategoricalPlanTrace: the categorical path prices its strategies
// through the planner and stamps the decision.
func TestCategoricalPlanTrace(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	cfg.Planner = plan.New(plan.Config{Obs: reg, Profile: fixedProfile(nil)})
	schema := Schema{
		VectorFields: []VectorField{{Name: "v", Dim: 8, Metric: vec.L2}},
		CatFields:    []string{"color"},
	}
	c, err := NewCollection("cat", schema, objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ents := mkEntities(300, 8, 42)
	colors := []string{"red", "green", "blue"}
	for i := range ents {
		ents[i].Attrs = nil
		ents[i].Cats = []string{colors[i%3]}
	}
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("categorical")
	query := mkEntities(1, 8, 7)[0].Vectors[0]
	if _, err := c.SearchCategorical(query, "color", []string{"red"}, SearchOptions{K: 5, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	choice, ok := sum.Attr("plan")
	if !ok {
		t.Fatal("categorical trace missing plan=")
	}
	strat, _ := sum.Attr("filter_strategy")
	wantStrat := map[string]string{
		string(plan.StrategyPrefilter): "A",
		string(plan.StrategyPushdown):  "B",
	}[choice]
	if strat != wantStrat {
		t.Errorf("plan=%q but filter_strategy=%q", choice, strat)
	}
}
