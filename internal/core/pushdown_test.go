package core

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vectordb/internal/colstore"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// pushdownFixture is a multi-segment collection with deletes, plus the
// client-side copy of every entity the oracle scans.
type pushdownFixture struct {
	c       *Collection
	ents    []Entity
	deleted map[int64]bool
}

func newPushdownFixture(t *testing.T, n int) *pushdownFixture {
	t.Helper()
	c, err := NewCollection("pd", catSchema(8), objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ents := mkCatEntities(n, 8, 31)
	// Several explicit flushes → several immutable segments.
	for lo := 0; lo < n; lo += n / 4 {
		hi := lo + n/4
		if hi > n {
			hi = n
		}
		if err := c.Insert(ents[lo:hi]); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone every 7th entity after the segments are sealed.
	deleted := map[int64]bool{}
	var dead []int64
	for i := 0; i < n; i += 7 {
		dead = append(dead, ents[i].ID)
		deleted[ents[i].ID] = true
	}
	if err := c.Delete(dead); err != nil {
		t.Fatal(err)
	}
	// Tombstones become snapshot-visible at the next flush.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return &pushdownFixture{c: c, ents: ents, deleted: deleted}
}

// oracle computes the exact filtered top-k over live entities.
func (f *pushdownFixture) oracle(q []float32, k int, keep func(Entity) bool) []topk.Result {
	dist := vec.L2.Dist()
	h := topk.New(k)
	for _, e := range f.ents {
		if f.deleted[e.ID] || !keep(e) {
			continue
		}
		h.Push(e.ID, dist(q, e.Vectors[0]))
	}
	return h.Results()
}

func (f *pushdownFixture) checkExact(t *testing.T, label string, got, want []topk.Result, keep func(Entity) bool) {
	t.Helper()
	byID := map[int64]Entity{}
	for _, e := range f.ents {
		byID[e.ID] = e
	}
	for _, r := range got {
		e, ok := byID[r.ID]
		if !ok {
			t.Fatalf("%s: unknown id %d", label, r.ID)
		}
		if f.deleted[r.ID] {
			t.Fatalf("%s: deleted id %d returned", label, r.ID)
		}
		if !keep(e) {
			t.Fatalf("%s: filtered-out id %d returned", label, r.ID)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle has %d", label, len(got), len(want))
	}
	wantIDs := make([]int64, len(want))
	gotIDs := make([]int64, len(got))
	for i := range want {
		wantIDs[i], gotIDs[i] = want[i].ID, got[i].ID
	}
	sort.Slice(wantIDs, func(a, b int) bool { return wantIDs[a] < wantIDs[b] })
	sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
	for i := range wantIDs {
		if wantIDs[i] != gotIDs[i] {
			t.Fatalf("%s: result set differs from oracle: got %v want %v", label, gotIDs, wantIDs)
		}
	}
}

// TestPushdownMultiSegmentConformance: the pushed per-segment bitsets must
// agree exactly with the filter-then-scan oracle across segments and
// tombstones, for range, categorical and composite predicate queries.
func TestPushdownMultiSegmentConformance(t *testing.T) {
	f := newPushdownFixture(t, 400)
	r := rand.New(rand.NewSource(5))
	q := make([]float32, 8)
	for j := range q {
		q[j] = float32(r.NormFloat64())
	}
	const k = 12

	got, err := f.c.SearchFilteredCtx(context.Background(), q, "price", 100, 600, SearchOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	keep := func(e Entity) bool { return e.Attrs[0] >= 100 && e.Attrs[0] <= 600 }
	f.checkExact(t, "range", got, f.oracle(q, k, keep), keep)

	got, err = catHits(f.c, q, "brand", []string{"acme", "umbrella"}, SearchOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	keepCat := func(e Entity) bool { return e.Cats[0] == "acme" || e.Cats[0] == "umbrella" }
	f.checkExact(t, "categorical", got, f.oracle(q, k, keepCat), keepCat)

	pred := colstore.AndPred{Preds: []colstore.Pred{
		colstore.RangePred{Attr: 0, Lo: 0, Hi: 750},
		colstore.NotPred{Pred: colstore.InPred{Cat: 0, Values: []string{"globex"}}},
	}}
	tr := obs.NewQueryRecord("pred")
	got, err = hitsOf(f.c, Request{Vector: q, Pred: pred, SearchOptions: SearchOptions{K: k, Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	keepPred := func(e Entity) bool { return e.Attrs[0] <= 750 && e.Cats[0] != "globex" }
	f.checkExact(t, "pred", got, f.oracle(q, k, keepPred), keepPred)
	if mode, ok := tr.Attr("filter_mode"); !ok || mode == "" {
		t.Errorf("pred trace missing filter_mode (got %q)", mode)
	}
	if _, ok := tr.Attr("filter_selectivity"); !ok {
		t.Error("pred trace missing filter_selectivity")
	}

	// Or over disjoint brands composes with range the same way.
	pred2 := colstore.OrPred{Preds: []colstore.Pred{
		colstore.InPred{Cat: 0, Values: []string{"initech"}},
		colstore.AndPred{Preds: []colstore.Pred{
			colstore.RangePred{Attr: 0, Lo: 0, Hi: 99},
			colstore.InPred{Cat: 0, Values: []string{"acme"}},
		}},
	}}
	got, err = hitsOf(f.c, Request{Vector: q, Pred: pred2, SearchOptions: SearchOptions{K: k}})
	if err != nil {
		t.Fatal(err)
	}
	keepPred2 := func(e Entity) bool {
		return e.Cats[0] == "initech" || (e.Attrs[0] <= 99 && e.Cats[0] == "acme")
	}
	f.checkExact(t, "pred2", got, f.oracle(q, k, keepPred2), keepPred2)

	// Empty predicate → no results, no error.
	got, err = hitsOf(f.c, Request{Vector: q, Pred: colstore.RangePred{Attr: 0, Lo: 5000, Hi: 6000}, SearchOptions: SearchOptions{K: k}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty predicate returned %d results", len(got))
	}
}

// TestPushdownWithIndexNoViolations: once segments carry real indexes the
// pushed bitsets run beneath index scans — results may be approximate but
// can never contain a deleted or filtered-out entity.
func TestPushdownWithIndexNoViolations(t *testing.T) {
	f := newPushdownFixture(t, 400)
	if err := f.c.BuildIndex("v", "IVF_FLAT", map[string]string{"nlist": "8", "iter": "4"}); err != nil {
		t.Fatal(err)
	}
	f.c.WaitIndexed()
	r := rand.New(rand.NewSource(6))
	q := make([]float32, 8)
	for j := range q {
		q[j] = float32(r.NormFloat64())
	}
	got, err := f.c.SearchFilteredCtx(context.Background(), q, "price", 200, 800, SearchOptions{K: 10, Nprobe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("indexed filtered search returned nothing")
	}
	byID := map[int64]Entity{}
	for _, e := range f.ents {
		byID[e.ID] = e
	}
	for _, res := range got {
		if f.deleted[res.ID] {
			t.Fatalf("deleted id %d returned from indexed pushdown", res.ID)
		}
		if e := byID[res.ID]; e.Attrs[0] < 200 || e.Attrs[0] > 800 {
			t.Fatalf("filtered-out id %d (price %d) returned from indexed pushdown", res.ID, e.Attrs[0])
		}
	}
}

// TestPrefilterScansIndexedSegmentWithoutCodes: strategy A never uses a
// segment's index. An IVF-indexed segment at the code floor is counted
// and traced as a segment_scan, A answers the exact filtered top-k, and no
// code copy is built for the indexed field however often A scans it.
func TestPrefilterScansIndexedSegmentWithoutCodes(t *testing.T) {
	const dim, rows, k = 32, codedBatchFloats / 32, 10
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs, cfg.FlushRows = reg, rows
	cfg.IndexRows, cfg.IndexType, cfg.IndexParams = 64, "IVF_FLAT", map[string]string{"nlist": "16"}
	cfg.Planner = plan.New(plan.Config{Obs: reg, Profile: fixedProfile(func(p *plan.Profile) { p.BitsetNsPerRow = 1e6 })})
	c, err := NewCollection("afield", testSchema(dim), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(rows, dim, 12)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	q, lo, hi := ents[3].Vectors[0], int64(0), int64(2000)
	want := topk.New(k)
	for _, e := range ents {
		if e.Attrs[0] >= lo && e.Attrs[0] <= hi {
			want.Push(e.ID, vec.L2Squared(q, e.Vectors[0]))
		}
	}
	wantIDs := resultIDs(want.Results())
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	if len(sn.Segments) != 1 || sn.Segments[0].Index(0) == nil {
		t.Fatalf("fixture: %d segments, want one indexed segment", len(sn.Segments))
	}
	for round := 0; round < 3; round++ {
		tr := obs.NewQueryRecord("filtered")
		got, err := hitsOf(c, Request{Vector: q, Pred: colstore.RangePred{Attr: 0, Lo: lo, Hi: hi}, SearchOptions: SearchOptions{K: k, Trace: tr}})
		if err != nil {
			t.Fatal(err)
		}
		if ids := resultIDs(got); !slices.Equal(ids, wantIDs) {
			t.Fatalf("round %d: A answered %v, want the exact %v", round, ids, wantIDs)
		}
		sum := tr.Summary()
		if strat, _ := sum.Attr("filter_strategy"); strat != "A" {
			t.Fatalf("round %d: filter_strategy %q, want A", round, strat)
		}
		if _, probed := sum.StageBreakdown()["index_search"]; probed {
			t.Fatalf("round %d: A probed an index: %v", round, sum.Stages())
		}
		if n := reg.Counter("vectordb_query_segments_total", "collection", "afield", "path", "scan").Value(); n != int64(round+1) {
			t.Fatalf("round %d: %d segment scans counted, want %d", round, n, round+1)
		}
		if sn.Segments[0].fieldCodes(0).codes.Load() != nil {
			t.Fatalf("round %d: A built a code copy of the indexed field", round)
		}
	}
}
