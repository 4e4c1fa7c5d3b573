package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
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

// readPathFixture is a flushed collection every request shape can
// run against: two inner-product vector fields (so fusion applies), one
// numeric and one categorical attribute, its own registry, query log and
// admission pool. newReadPathFixtureOf gives the fields another metric.
type readPathFixture struct {
	c    *Collection
	reg  *obs.Registry
	qlog *obs.QueryLog
	pool *exec.Pool
	w    []float32 // a valid query for the second field
}

func newReadPathFixture(t *testing.T, prof *plan.Profile) *readPathFixture {
	t.Helper()
	return newReadPathFixtureOf(t, prof, vec.IP)
}

func newReadPathFixtureOf(t *testing.T, prof *plan.Profile, metric vec.Metric) *readPathFixture {
	t.Helper()
	fx := &readPathFixture{
		reg:  obs.NewRegistry(),
		qlog: obs.NewQueryLog(16, 8, time.Hour),
		pool: exec.NewPool(exec.Config{Workers: 1, AdmitQueue: 1}),
		w:    []float32{1, 0, -1, 0.5},
	}
	t.Cleanup(fx.pool.Close)
	cfg := testConfig()
	cfg.Obs, cfg.QueryLog, cfg.Exec = fx.reg, fx.qlog, fx.pool
	cfg.Planner = plan.New(plan.Config{Obs: fx.reg, Profile: prof})
	schema := Schema{
		VectorFields: []VectorField{{Name: "v", Dim: 8, Metric: metric}, {Name: "w", Dim: 4, Metric: metric}},
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

// readVariant is one shape of read request, under a stable subtest name.
type readVariant struct {
	name string
	kind string // its vectordb_query_total type
	// takes says which request parts the variant reads beyond vec and k.
	takesField, takesAttr, takesCat bool
	// req builds the request; a name that does not resolve fails here.
	req func(fx *readPathFixture, r readReq) (Request, error)
}

// run sends v's request and counts its hits (the first query's, for a
// batch of two).
func (v readVariant) run(ctx context.Context, fx *readPathFixture, r readReq) (int, error) {
	q, err := v.req(fx, r)
	if err != nil {
		return 0, err
	}
	res, err := fx.c.Query(ctx, q)
	if q.Batch == nil || err != nil {
		return len(res.Hits), err
	}
	if len(res.Batch) != 2 {
		return 0, fmt.Errorf("batch of 2 answered %d lists", len(res.Batch))
	}
	return len(res.Batch[0]), nil
}

func hits(res []topk.Result, err error) (int, error) { return len(res), err }

// hitsOf is Query under a background context, for the requests whose
// answer is Hits.
func hitsOf(c *Collection, q Request) ([]topk.Result, error) {
	res, err := c.Query(context.Background(), q)
	return res.Hits, err
}

// batchOf is Query of a Batch request.
func batchOf(ctx context.Context, c *Collection, queries [][]float32, opts SearchOptions) ([][]topk.Result, error) {
	res, err := c.Query(ctx, Request{Batch: queries, SearchOptions: opts})
	return res.Batch, err
}

// readVariants lists the request shapes: one vector, a predicate given by
// name or by position (range and IN-list), one vector per field with and
// without weights, and a batch.
var readVariants = []readVariant{
	{name: "SearchCtx", kind: "vector", takesField: true,
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			return Request{Vector: r.vec, SearchOptions: r.opts()}, nil
		}},
	{name: "SearchFilteredCtx", kind: "filtered", takesField: true, takesAttr: true,
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			pred, err := fx.c.Schema().RangePred(r.attr, r.lo, r.hi)
			return Request{Vector: r.vec, Pred: pred, SearchOptions: r.opts()}, err
		}},
	{name: "SearchPredCtx/range", kind: "filtered", takesField: true, takesAttr: true,
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			attr := 0
			if r.attr != "price" {
				attr = 7
			}
			return Request{Vector: r.vec, Pred: colstore.RangePred{Attr: attr, Lo: r.lo, Hi: r.hi}, SearchOptions: r.opts()}, nil
		}},
	{name: "SearchPredCtx/in", kind: "categorical", takesField: true, takesCat: true,
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			cat := 0
			if r.cat != "brand" {
				cat = 7
			}
			return Request{Vector: r.vec, Pred: colstore.InPred{Cat: cat, Values: r.values}, SearchOptions: r.opts()}, nil
		}},
	{name: "SearchCategoricalCtx", kind: "categorical", takesField: true, takesCat: true,
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			pred, err := fx.c.Schema().InPred(r.cat, r.values)
			return Request{Vector: r.vec, Pred: pred, SearchOptions: r.opts()}, err
		}},
	{name: "SearchMultiVectorCtx", kind: "multi",
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			return Request{Fields: [][]float32{r.vec, fx.w}, Weights: []float32{2, 0.5}, SearchOptions: SearchOptions{K: r.k}}, nil
		}},
	{name: "SearchFusedCtx", kind: "multi",
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			return Request{Fields: [][]float32{r.vec, fx.w}, SearchOptions: r.opts()}, nil
		}},
	{name: "SearchBatchCtx", kind: "batch", takesField: true,
		req: func(fx *readPathFixture, r readReq) (Request, error) {
			return Request{Batch: [][]float32{r.vec, r.vec}, SearchOptions: r.opts()}, nil
		}},
}

// queryKinds are every vectordb_query_total type a request can count under.
var queryKinds = []string{"vector", "filtered", "categorical", "multi", "batch"}

func (fx *readPathFixture) queryCount(kind string) int64 {
	return fx.reg.Counter("vectordb_query_total", "collection", "rp", "type", kind).Value()
}

func (fx *readPathFixture) latencyCount() int64 {
	return int64(fx.reg.Histogram("vectordb_query_latency_seconds", nil, "collection", "rp").Count())
}

// TestMalformedRequestIsARequestError: a wrong-dimension vector, a NaN or
// ±Inf in a float field's query, K ≤ 0, an unknown field or attribute and an empty IN-list are request errors on
// every variant, on both sides of the planner's prefilter/pushdown
// crossover, for a narrow and a wide range; so is a request that sets none
// or several of Vector, Batch and Fields, Weights without Fields, or a
// predicate on a Batch or Fields request: no panic, no empty success,
// nothing counted under any type, logged or left admitted.
func TestMalformedRequestIsARequestError(t *testing.T) {
	malformed := []struct {
		name    string
		applies func(v readVariant) bool
		mutate  func(r *readReq)
	}{
		{"short vector", nil, func(r *readReq) { r.vec = r.vec[:4] }},
		{"long vector", nil, func(r *readReq) { r.vec = append(r.vec[:8:8], 1) }},
		{"nil vector", nil, func(r *readReq) { r.vec = nil }},
		{"NaN in vector", nil, func(r *readReq) { r.vec[3] = float32(math.NaN()) }},
		{"+Inf in vector", nil, func(r *readReq) { r.vec[0] = float32(math.Inf(1)) }},
		{"-Inf in vector", nil, func(r *readReq) { r.vec[7] = float32(math.Inf(-1)) }},
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
	good := goodReq()
	opts := good.opts()
	in := colstore.InPred{Cat: 0, Values: good.values}
	shapes := []struct {
		name string
		req  Request
	}{
		{"no shape", Request{SearchOptions: opts}},
		{"Vector and Batch", Request{Vector: good.vec, Batch: [][]float32{good.vec}, SearchOptions: opts}},
		{"Vector and Fields", Request{Vector: good.vec, Fields: [][]float32{good.vec, {1, 0, -1, 0.5}}, SearchOptions: opts}},
		{"Batch and Fields", Request{Batch: [][]float32{good.vec}, Fields: [][]float32{good.vec, {1, 0, -1, 0.5}}, SearchOptions: opts}},
		{"Weights on Vector", Request{Vector: good.vec, Weights: []float32{1, 1}, SearchOptions: opts}},
		{"Weights on Batch", Request{Batch: [][]float32{good.vec}, Weights: []float32{1, 1}, SearchOptions: opts}},
		{"Pred on Batch", Request{Batch: [][]float32{good.vec}, Pred: in, SearchOptions: opts}},
		{"Pred on Fields", Request{Fields: [][]float32{good.vec, {1, 0, -1, 0.5}}, Pred: in, SearchOptions: opts}},
	}
	for side, prof := range sides {
		fx := newReadPathFixture(t, prof)
		for _, sh := range shapes {
			t.Run(side+"/shape/"+sh.name, func(t *testing.T) {
				counted := make([]int64, len(queryKinds))
				for i, kind := range queryKinds {
					counted[i] = fx.queryCount(kind)
				}
				sampled, logged := fx.latencyCount(), fx.qlog.Total()
				res, err := fx.c.Query(context.Background(), sh.req)
				if err == nil {
					t.Fatalf("answered %+v, want a request error", res)
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, exec.ErrRejected) {
					t.Fatalf("err = %v, want a request error", err)
				}
				if fx.pool.Inflight() != 0 {
					t.Errorf("%d queries left in flight", fx.pool.Inflight())
				}
				for i, kind := range queryKinds {
					if got := fx.queryCount(kind); got != counted[i] {
						t.Errorf("rejected request counted as %q: %d -> %d", kind, counted[i], got)
					}
				}
				if fx.latencyCount() != sampled || fx.qlog.Total() != logged {
					t.Error("rejected request sampled or logged")
				}
			})
		}
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

// TestQueryJudgesVectorsByFieldKind: the schema judges a query's values
// by field kind. A NaN or ±Inf weight is a request error, as one in a
// float field's query vector is (TestMalformedRequestIsARequestError). A
// binary field's packed words are bit patterns: a Hamming or Tanimoto
// query holding an all-ones word or a NaN's or ±Inf's pattern answers,
// its own row first at distance 0.
func TestQueryJudgesVectorsByFieldKind(t *testing.T) {
	fx := newReadPathFixture(t, fixedProfile(nil))
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		req := Request{Fields: [][]float32{goodReq().vec, fx.w}, Weights: []float32{1, bad}, SearchOptions: SearchOptions{K: 5}}
		if res, err := fx.c.Query(context.Background(), req); err == nil {
			t.Errorf("weight %v answered %v", bad, res.Hits)
		}
	}
	words := [][]uint32{{0xFFFFFFFF, 0x7FC00000}, {0x0000FFFF, 0x7F800000}, {0xFF800000, 0x12345678}, {1, 2}}
	for _, m := range []vec.Metric{vec.Hamming, vec.Tanimoto} {
		c, err := NewCollection("bits", Schema{VectorFields: []VectorField{{Name: "fp", Dim: 2, Metric: m}}}, nil, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ents := make([]Entity, len(words))
		for i, w := range words {
			ents[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{{math.Float32frombits(w[0]), math.Float32frombits(w[1])}}}
		}
		if err := c.Insert(ents); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			hits, err := hitsOf(c, Request{Vector: e.Vectors[0], SearchOptions: SearchOptions{K: 2}})
			if err != nil || len(hits) == 0 || hits[0].ID != e.ID || hits[0].Distance != 0 {
				t.Errorf("%s: query %x answered %v, %v; want id %d first at distance 0", m, words[e.ID-1], hits, err, e.ID)
			}
		}
	}
}

// TestEveryVariantRunsTheSameStages walks every request shape through the
// one read path and checks what Query promises for each: counted once
// under its type, sampled once, logged with a sched_wait stage and a plan=
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
			slot, err := fx.pool.Admit(context.Background(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			waitCtx, stopWaiting := context.WithCancel(context.Background())
			parked := make(chan struct{})
			go func() {
				defer close(parked)
				if s, err := fx.pool.Admit(waitCtx, nil, nil); err == nil {
					s.Release()
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
			slot.Release()
		})
	}
}

// TestSearchSnapshotCtxOutsideExecute: a SourceView's search over its
// pinned snapshot runs only the single-vector check before the sweep.
// Malformed requests are the same request errors as on a Vector request; a
// valid one answers without being counted, sampled or logged, and without
// taking an admission slot — its callers are already inside an admitted
// query.
func TestSearchSnapshotCtxOutsideExecute(t *testing.T) {
	fx := newReadPathFixture(t, fixedProfile(nil))
	src := fx.c.Source()
	defer src.Release()
	run := func(r readReq) (int, error) {
		return hits(src.search(r.vec, r.opts(), nil))
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

	// The one slot held and the one-deep queue full: every request
	// fast-fails here, the pinned-snapshot search still answers.
	t.Run("full admission queue", func(t *testing.T) {
		slot, err := fx.pool.Admit(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer slot.Release()
		waitCtx, stopWaiting := context.WithCancel(context.Background())
		parked := make(chan struct{})
		go func() {
			defer close(parked)
			if s, err := fx.pool.Admit(waitCtx, nil, nil); err == nil {
				s.Release()
			}
		}()
		defer func() { stopWaiting(); <-parked }()
		for deadline := time.Now().Add(2 * time.Second); fx.pool.Waiting() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("waiter never parked in admission")
			}
			time.Sleep(time.Millisecond)
		}
		if _, err := hitsOf(fx.c, Request{Vector: goodReq().vec, SearchOptions: goodReq().opts()}); !errors.Is(err, exec.ErrRejected) {
			t.Fatalf("Query under a full queue: err = %v, want exec.ErrRejected", err)
		}
		if n, err := run(goodReq()); err != nil || n != 5 {
			t.Fatalf("%d hits, %v; want 5 hits without admission", n, err)
		}
	})
}

// TestEveryRunnerKeepsOneAccount: every runner — solo, pushed-down,
// prefiltered, batch, fused and iterative merging — runs on the one sweep,
// so each query's record holds the segments stage, a per-segment stage and
// topk_merge, each sweep counts every segment of the snapshot as indexed
// or scanned, and vectordb_query_segments_total grows by the segment count
// once per sweep. Every runner sweeps once but iterative merging, which
// sweeps each field once per round.
func TestEveryRunnerKeepsOneAccount(t *testing.T) {
	fx := newReadPathFixture(t, fixedProfile(nil))
	// Weighted L2 fields do not fuse, so they run iterative merging.
	l2 := newReadPathFixtureOf(t, fixedProfile(nil), vec.L2)
	sn := fx.c.AcquireSnapshot()
	segs := int64(len(sn.Segments))
	fx.c.ReleaseSnapshot(sn)
	if segs < 2 {
		t.Fatalf("%d segments, want at least 2", segs)
	}
	swept := func(fx *readPathFixture) int64 {
		return fx.reg.Counter("vectordb_query_segments_total", "collection", "rp", "path", "index").Value() +
			fx.reg.Counter("vectordb_query_segments_total", "collection", "rp", "path", "scan").Value()
	}
	q, q2 := goodReq().vec, mkEntities(2, 8, 8)[1].Vectors[0]
	opts := SearchOptions{K: 5}
	// A predicate tree can only push down; one price is selective enough
	// for the prefilter.
	pred := colstore.NotPred{Pred: colstore.RangePred{Attr: 0, Lo: 0, Hi: 100}}
	onePrice := colstore.RangePred{Attr: 0, Lo: 500, Hi: 500}
	for _, v := range []struct {
		name       string
		fx         *readPathFixture
		req        Request
		attr, want string // a query-wide attribute naming the runner
	}{
		{"solo", fx, Request{Vector: q, SearchOptions: opts}, "plan_forced", ""},
		{"pushdown", fx, Request{Vector: q, Pred: pred, SearchOptions: opts}, "filter_strategy", "B"},
		{"prefiltered", fx, Request{Vector: q, Pred: onePrice, SearchOptions: opts}, "filter_strategy", "A"},
		{"batch", fx, Request{Batch: [][]float32{q, q2}, SearchOptions: opts}, "batch_occupancy", "2"},
		{"fused", fx, Request{Fields: [][]float32{q, fx.w}, SearchOptions: opts}, "multi_algorithm", "fused"},
		{"weighted", l2, Request{Fields: [][]float32{q, l2.w}, Weights: []float32{0.75, 0.25}, SearchOptions: opts}, "multi_algorithm", "iterative_merging"},
	} {
		tr := obs.NewQueryRecord(v.name)
		v.req.Trace = tr
		before := swept(v.fx)
		if _, err := v.fx.c.Query(context.Background(), v.req); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		sum := tr.Summary()
		if got, _ := sum.Attr(v.attr); got != v.want {
			t.Errorf("%s: %s = %q, want %q", v.name, v.attr, got, v.want)
		}
		stages := sum.StageBreakdown()
		_, probed := stages["index_search"]
		_, scanned := stages["segment_scan"]
		if !probed && !scanned {
			t.Errorf("%s: no per-segment stage in %v", v.name, sum.Stages())
		}
		for _, want := range []string{"segments", "topk_merge"} {
			if _, ok := stages[want]; !ok {
				t.Errorf("%s: missing stage %q in %v", v.name, want, sum.Stages())
			}
		}
		sweeps, counted := int64(0), int64(0)
		for _, sp := range sum.Spans {
			if sp.Name != "segments" {
				continue
			}
			sweeps = sp.Count
			for _, kv := range sp.Attrs {
				if kv.Key == "indexed" || kv.Key == "scanned" {
					n, _ := strconv.ParseInt(kv.Value, 10, 64)
					counted += n
				}
			}
		}
		if iterative := v.name == "weighted"; iterative && (sweeps == 0 || sweeps%2 != 0) || !iterative && sweeps != 1 {
			t.Errorf("%s: %d sweeps", v.name, sweeps)
		}
		if got := swept(v.fx) - before; got != sweeps*segs {
			t.Errorf("%s: vectordb_query_segments_total grew by %d over %d sweeps, want %d a sweep", v.name, got, sweeps, segs)
		}
		if counted != segs {
			t.Errorf("%s: indexed + scanned = %d, want %d", v.name, counted, segs)
		}
	}
}

// TestFusedTraceStages: a fused query's trace carries the same stage chain
// as any other sweep, and its multi-vector algorithm.
func TestFusedTraceStages(t *testing.T) {
	fx := newReadPathFixture(t, fixedProfile(nil))
	tr := obs.NewQueryRecord("fused")
	r := goodReq()
	if _, err := hitsOf(fx.c, Request{Fields: [][]float32{r.vec, fx.w}, SearchOptions: SearchOptions{K: 5, Trace: tr}}); err != nil {
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
