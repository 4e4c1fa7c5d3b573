package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vectordb/internal/colstore"
	"vectordb/internal/exec"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// readPathFixture is a flushed collection every public search variant can
// run against: two inner-product vector fields (so fusion applies), one
// numeric and one categorical attribute, its own registry, query log and
// admission pool.
type readPathFixture struct {
	c    *Collection
	reg  *obs.Registry
	qlog *obs.QueryLog
	pool *exec.Pool
	w    []float32 // a valid query for the second field
}

func newReadPathFixture(t *testing.T, prof *plan.Profile) *readPathFixture {
	t.Helper()
	fx := &readPathFixture{
		reg:  obs.NewRegistry(),
		qlog: obs.NewQueryLog(16, 8, time.Hour),
		pool: exec.NewPool(exec.Config{Workers: 2, MaxInflight: 1, AdmitQueue: 1}),
		w:    []float32{1, 0, -1, 0.5},
	}
	t.Cleanup(fx.pool.Close)
	cfg := testConfig()
	cfg.Obs, cfg.QueryLog, cfg.Exec = fx.reg, fx.qlog, fx.pool
	cfg.Planner = plan.New(plan.Config{Obs: fx.reg, Profile: prof})
	schema := Schema{
		VectorFields: []VectorField{{Name: "v", Dim: 8, Metric: vec.IP}, {Name: "w", Dim: 4, Metric: vec.IP}},
		AttrFields:   []string{"price"},
		CatFields:    []string{"brand"},
	}
	c, err := NewCollection("rp", schema, objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	r := rand.New(rand.NewSource(5))
	ents := mkCatEntities(300, 8, 5)
	for i := range ents {
		w := make([]float32, 4)
		for j := range w {
			w[j] = float32(r.NormFloat64())
		}
		ents[i].Vectors = append(ents[i].Vectors, w)
		ents[i].Attrs[0] = int64(i * 10) // price 0..2990, one row per 10
	}
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	fx.c = c
	return fx
}

// readReq is one request's variable parts; each variant reads what applies.
type readReq struct {
	vec    []float32 // query for field "v"
	k      int
	field  string   // SearchOptions.Field
	attr   string   // numeric attribute name / index
	lo, hi int64    // numeric range
	cat    string   // categorical attribute name
	values []string // IN-list
}

func (r readReq) opts() SearchOptions { return SearchOptions{Field: r.field, K: r.k} }

func goodReq() readReq {
	return readReq{
		vec: mkEntities(1, 8, 7)[0].Vectors[0], k: 5,
		attr: "price", lo: 0, hi: 2990, cat: "brand", values: []string{"acme", "globex"},
	}
}

// readVariant is one public entry to the read path.
type readVariant struct {
	name string
	kind string // its vectordb_query_total type
	// takes says which request parts the variant reads beyond vec and k.
	takesField, takesAttr, takesCat bool
	run                             func(ctx context.Context, fx *readPathFixture, r readReq) (int, error)
}

func hits(res []topk.Result, err error) (int, error) { return len(res), err }

// readVariants lists every public Search*Ctx entry: the seven variants that
// go through execute, with both predicate shapes SearchPredCtx takes.
var readVariants = []readVariant{
	{name: "SearchCtx", kind: "vector", takesField: true,
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			return hits(fx.c.SearchCtx(ctx, r.vec, r.opts()))
		}},
	{name: "SearchFilteredCtx", kind: "filtered", takesField: true, takesAttr: true,
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			return hits(fx.c.SearchFilteredCtx(ctx, r.vec, r.attr, r.lo, r.hi, r.opts()))
		}},
	{name: "SearchPredCtx/range", kind: "filtered", takesField: true, takesAttr: true,
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			attr := 0
			if r.attr != "price" {
				attr = 7
			}
			return hits(fx.c.SearchPredCtx(ctx, r.vec, colstore.RangePred{Attr: attr, Lo: r.lo, Hi: r.hi}, r.opts()))
		}},
	{name: "SearchPredCtx/in", kind: "filtered", takesField: true, takesCat: true,
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			cat := 0
			if r.cat != "brand" {
				cat = 7
			}
			return hits(fx.c.SearchPredCtx(ctx, r.vec, colstore.InPred{Cat: cat, Values: r.values}, r.opts()))
		}},
	{name: "SearchCategoricalCtx", kind: "categorical", takesField: true, takesCat: true,
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			return hits(fx.c.SearchCategoricalCtx(ctx, r.vec, r.cat, r.values, r.opts()))
		}},
	{name: "SearchMultiVectorCtx", kind: "multi",
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			return hits(fx.c.SearchMultiVectorCtx(ctx, [][]float32{r.vec, fx.w}, []float32{2, 0.5}, r.k))
		}},
	{name: "SearchFusedCtx", kind: "fused",
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			return hits(fx.c.SearchFusedCtx(ctx, [][]float32{r.vec, fx.w}, nil, r.opts()))
		}},
	{name: "SearchBatchCtx", kind: "batch", takesField: true,
		run: func(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
			out, err := fx.c.SearchBatchCtx(ctx, [][]float32{r.vec, r.vec}, r.opts())
			if err != nil || len(out) != 2 {
				return 0, err
			}
			return len(out[0]), nil
		}},
}

func (fx *readPathFixture) queryCount(kind string) int64 {
	return fx.reg.Counter("vectordb_query_total", "collection", "rp", "type", kind).Value()
}

func (fx *readPathFixture) latencyCount() int64 {
	return int64(fx.reg.Histogram("vectordb_query_latency_seconds", nil, "collection", "rp").Count())
}

// TestMalformedRequestIsARequestError: a wrong-dimension vector, K ≤ 0, an
// unknown field or attribute and an empty IN-list are request errors on
// every variant, on both sides of the planner's prefilter/pushdown
// crossover, for a narrow and a wide range: no panic, no empty success,
// nothing counted, logged or left admitted.
func TestMalformedRequestIsARequestError(t *testing.T) {
	malformed := []struct {
		name    string
		applies func(v readVariant) bool
		mutate  func(r *readReq)
	}{
		{"short vector", nil, func(r *readReq) { r.vec = r.vec[:4] }},
		{"long vector", nil, func(r *readReq) { r.vec = append(r.vec[:8:8], 1) }},
		{"nil vector", nil, func(r *readReq) { r.vec = nil }},
		{"K=0", nil, func(r *readReq) { r.k = 0 }},
		{"K=-1", nil, func(r *readReq) { r.k = -1 }},
		{"unknown vector field", func(v readVariant) bool { return v.takesField }, func(r *readReq) { r.field = "zz" }},
		{"unknown attribute", func(v readVariant) bool { return v.takesAttr }, func(r *readReq) { r.attr = "nope" }},
		{"unknown categorical", func(v readVariant) bool { return v.takesCat }, func(r *readReq) { r.cat = "nope" }},
		{"empty IN-list", func(v readVariant) bool { return v.takesCat }, func(r *readReq) { r.values = nil }},
	}
	sides := map[string]*plan.Profile{
		"prefilter": fixedProfile(func(p *plan.Profile) { p.BitsetNsPerRow = 1e6 }),
		"pushdown":  fixedProfile(func(p *plan.Profile) { p.RowOverheadNs = 1e6 }),
	}
	ranges := map[string][2]int64{"narrow": {100, 120}, "wide": {0, 2990}}
	for side, prof := range sides {
		fx := newReadPathFixture(t, prof)
		for _, v := range readVariants {
			for _, m := range malformed {
				if m.applies != nil && !m.applies(v) {
					continue
				}
				for width, lohi := range ranges {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", side, v.name, m.name, width), func(t *testing.T) {
						r := goodReq()
						r.lo, r.hi = lohi[0], lohi[1]
						m.mutate(&r)
						counted, sampled, logged := fx.queryCount(v.kind), fx.latencyCount(), fx.qlog.Total()
						defer func() {
							if p := recover(); p != nil {
								t.Fatalf("panicked: %v", p)
							}
						}()
						n, err := v.run(context.Background(), fx, r)
						if err == nil {
							t.Fatalf("succeeded with %d hits, want a request error", n)
						}
						if errors.Is(err, context.Canceled) || errors.Is(err, exec.ErrRejected) {
							t.Fatalf("err = %v, want a request error", err)
						}
						if fx.pool.Inflight() != 0 {
							t.Errorf("%d queries left in flight", fx.pool.Inflight())
						}
						if got := fx.queryCount(v.kind); got != counted {
							t.Errorf("rejected request counted: %d -> %d", counted, got)
						}
						if fx.latencyCount() != sampled || fx.qlog.Total() != logged {
							t.Error("rejected request sampled or logged")
						}
					})
				}
			}
		}
	}
}

// TestEveryVariantRunsTheSameStages walks every public variant through the
// one read path and checks what execute promises for each: counted once
// under its kind, sampled once, logged with a sched_wait stage and a plan=
// annotation, a dead context answered with its own error, and admission
// rejection surfaced unchanged.
func TestEveryVariantRunsTheSameStages(t *testing.T) {
	fx := newReadPathFixture(t, fixedProfile(nil))
	for _, v := range readVariants {
		t.Run(v.name, func(t *testing.T) {
			counted, sampled, logged := fx.queryCount(v.kind), fx.latencyCount(), fx.qlog.Total()
			n, err := v.run(context.Background(), fx, goodReq())
			if err != nil || n != 5 {
				t.Fatalf("%d hits, %v; want 5 hits", n, err)
			}
			if got := fx.queryCount(v.kind); got != counted+1 {
				t.Errorf("vectordb_query_total{type=%q} %d -> %d, want +1", v.kind, counted, got)
			}
			if got := fx.latencyCount(); got != sampled+1 {
				t.Errorf("latency histogram %d -> %d, want +1", sampled, got)
			}
			if got := fx.qlog.Total(); got != logged+1 {
				t.Fatalf("query log %d -> %d, want +1", logged, got)
			}
			entry := fx.qlog.Recent()[0]
			if entry.Op != v.kind {
				t.Errorf("logged op %q, want %q", entry.Op, v.kind)
			}
			if _, ok := entry.StageBreakdown()["sched_wait"]; !ok {
				t.Errorf("no sched_wait stage in %v", entry.Stages())
			}
			if p, ok := entry.Attr("plan"); !ok || p == "" {
				t.Errorf("no plan= annotation in %v", entry.Attrs)
			}
			if fx.pool.Inflight() != 0 {
				t.Errorf("%d queries left in flight", fx.pool.Inflight())
			}

			dead, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := v.run(dead, fx, goodReq()); !errors.Is(err, context.Canceled) {
				t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
			}

			// One slot, one-deep queue: with the slot held and a waiter
			// parked, the variant must fast-fail rather than queue.
			release, err := fx.pool.Admit(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			waitCtx, stopWaiting := context.WithCancel(context.Background())
			parked := make(chan struct{})
			go func() {
				defer close(parked)
				if rel, err := fx.pool.Admit(waitCtx); err == nil {
					rel()
				}
			}()
			for deadline := time.Now().Add(2 * time.Second); fx.pool.Waiting() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("waiter never parked in admission")
				}
				time.Sleep(time.Millisecond)
			}
			if _, err := v.run(context.Background(), fx, goodReq()); !errors.Is(err, exec.ErrRejected) {
				t.Errorf("full admission queue: err = %v, want exec.ErrRejected", err)
			}
			stopWaiting()
			<-parked
			release()
		})
	}
}

// TestSearchSnapshotCtxOutsideExecute: the pinned-snapshot entry runs only
// stage 1's single-vector check before the sweep. Malformed requests are
// the same request errors as on SearchCtx; a valid one answers without
// being counted, sampled or logged, and without taking an admission slot —
// its callers are already inside an admitted query.
func TestSearchSnapshotCtxOutsideExecute(t *testing.T) {
	fx := newReadPathFixture(t, fixedProfile(nil))
	src := fx.c.Source()
	defer src.Release()
	run := func(r readReq) (int, error) {
		return hits(fx.c.SearchSnapshotCtx(context.Background(), src.sn, r.vec, r.opts()))
	}
	unobserved := func(t *testing.T, counted, sampled, logged int64) {
		t.Helper()
		if got := fx.queryCount("vector"); got != counted {
			t.Errorf("vectordb_query_total{type=\"vector\"} %d -> %d, want unchanged", counted, got)
		}
		if fx.latencyCount() != sampled || fx.qlog.Total() != logged {
			t.Error("pinned-snapshot search sampled or logged")
		}
	}

	malformed := []struct {
		name   string
		mutate func(r *readReq)
	}{
		{"short vector", func(r *readReq) { r.vec = r.vec[:4] }},
		{"long vector", func(r *readReq) { r.vec = append(r.vec[:8:8], 1) }},
		{"nil vector", func(r *readReq) { r.vec = nil }},
		{"K=0", func(r *readReq) { r.k = 0 }},
		{"K=-1", func(r *readReq) { r.k = -1 }},
		{"unknown vector field", func(r *readReq) { r.field = "zz" }},
	}
	for _, m := range malformed {
		t.Run(m.name, func(t *testing.T) {
			r := goodReq()
			m.mutate(&r)
			counted, sampled, logged := fx.queryCount("vector"), fx.latencyCount(), fx.qlog.Total()
			if n, err := run(r); err == nil {
				t.Fatalf("succeeded with %d hits, want a request error", n)
			}
			unobserved(t, counted, sampled, logged)
		})
	}

	t.Run("valid", func(t *testing.T) {
		counted, sampled, logged := fx.queryCount("vector"), fx.latencyCount(), fx.qlog.Total()
		if n, err := run(goodReq()); err != nil || n != 5 {
			t.Fatalf("%d hits, %v; want 5 hits", n, err)
		}
		unobserved(t, counted, sampled, logged)
	})

	// The one slot held and the one-deep queue full: every execute variant
	// fast-fails here, the pinned-snapshot search still answers.
	t.Run("full admission queue", func(t *testing.T) {
		release, err := fx.pool.Admit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		waitCtx, stopWaiting := context.WithCancel(context.Background())
		parked := make(chan struct{})
		go func() {
			defer close(parked)
			if rel, err := fx.pool.Admit(waitCtx); err == nil {
				rel()
			}
		}()
		defer func() { stopWaiting(); <-parked }()
		for deadline := time.Now().Add(2 * time.Second); fx.pool.Waiting() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("waiter never parked in admission")
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := fx.c.SearchCtx(context.Background(), goodReq().vec, goodReq().opts()); !errors.Is(err, exec.ErrRejected) {
			t.Fatalf("SearchCtx under a full queue: err = %v, want exec.ErrRejected", err)
		}
		if n, err := run(goodReq()); err != nil || n != 5 {
			t.Fatalf("%d hits, %v; want 5 hits without admission", n, err)
		}
	})
}

// TestFusedTraceStages: a fused query's trace carries the same stage chain
// as any other sweep, and its multi-vector algorithm.
func TestFusedTraceStages(t *testing.T) {
	fx := newReadPathFixture(t, fixedProfile(nil))
	tr := obs.NewTrace("fused")
	r := goodReq()
	if _, err := fx.c.SearchFusedCtx(context.Background(), [][]float32{r.vec, fx.w}, nil, SearchOptions{K: 5, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	stages := sum.StageBreakdown()
	for _, want := range []string{"sched_wait", "plan", "segments", "topk_merge"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("missing stage %q in %v", want, sum.Stages())
		}
	}
	if alg, _ := sum.Attr("multi_algorithm"); alg != "fused" {
		t.Errorf("multi_algorithm = %q, want fused", alg)
	}
	if forced, _ := sum.Attr("plan_forced"); forced != "true" {
		t.Errorf("plan_forced = %q, want true", forced)
	}
}
