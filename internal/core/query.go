package core

import (
	"context"
	"fmt"
	"time"

	"vectordb/internal/colstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/query"
	"vectordb/internal/topk"
)

// Query kinds: the vectordb_query_total type label. The multi-vector kinds
// also say how vecs is read.
const (
	kindVector      = "vector"
	kindFiltered    = "filtered"
	kindCategorical = "categorical"
	kindBatch       = "batch" // vecs holds one query per entry, all against one field
	kindMulti       = "multi" // vecs holds one query per vector field
	kindFused       = "fused" // as kindMulti, and the caller requires the fused sweep
)

// Query is one read request in the form execute takes. Every public Search*
// variant builds one and calls execute; the fields are unexported so nothing
// else can.
type Query struct {
	kind    string
	vec     []float32     // the query vector of the single-vector kinds
	vecs    [][]float32   // kindBatch, kindMulti, kindFused
	weights []float32     // kindMulti, kindFused: per-field weights, nil = all 1
	pred    colstore.Pred // optional attribute predicate
	opts    SearchOptions
}

// result is what execute hands back: hits for every kind but kindBatch,
// which fills batch in input order.
type result struct {
	hits  []topk.Result
	batch [][]topk.Result
}

// runner names the ways a planned query runs over a pinned snapshot.
type runner uint8

const (
	runSegments  runner = iota // per-segment sweep, through the batch former
	runBatch                   // one tile sweep shared by the queries of an explicit batch
	runFused                   // one sweep of the aggregated query over the concatenated fields
	runIterative               // iterative merging over per-field sweeps
	runPrefilter               // the predicate's rows first, exact distances over them
	runPushdown                // the predicate compiled to bitsets beneath the per-segment sweep
)

// route is the plan step's output. dec is zero when the runner was fixed by
// the request or the schema rather than priced.
type route struct {
	run   runner
	dec   plan.Decision
	fused []float32 // runFused: the aggregated query
}

// execute is the collection's one read path (Sec. 2.3, 5.2): validate the
// request against the schema, count and trace it, take an admission slot,
// pin the current snapshot, plan, run the planned runner over that snapshot,
// and report the elapsed time back to the planner. Validation comes first so
// a malformed request is never counted, never holds a slot and never reaches
// a heap or a kernel. A cancelled query returns ctx's error, not partial
// results.
func (c *Collection) execute(ctx context.Context, q *Query) (result, error) {
	f, err := c.validate(q)
	if err != nil {
		return result{}, err
	}
	done := c.beginQuery(q.kind, &q.opts.Trace)
	defer done()
	tr := q.opts.Trace
	release, err := c.admit(ctx, tr)
	if err != nil {
		return result{}, err
	}
	defer release()
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)

	planSpan := tr.StartSpan("plan")
	rt := c.plan(sn, f, q)
	planSpan.AnnotateInt("segments", int64(len(sn.Segments)))
	planSpan.End()

	var res result
	t0 := time.Now()
	switch rt.run {
	case runBatch:
		res.batch, err = c.searchBatch(ctx, sn, c.batchFormKey(f, &q.opts), q.vecs)
	case runFused:
		res.hits, err = c.searchFused(ctx, sn, rt.fused, q.opts)
	case runIterative:
		src := &SourceView{c: c, sn: sn, Ctx: ctx}
		res.hits = query.IterativeMergingCtx(ctx, src, q.vecs, q.weights, q.opts.K, 16384)
	case runPrefilter:
		res.hits, err = c.prefilterScan(ctx, sn, f, q.vec, q.pred, q.opts)
	case runPushdown:
		res.hits, err = c.pushdownSearch(ctx, sn, f, q.vec, q.pred, q.opts)
	default:
		res.hits, err = c.searchBatched(ctx, sn, f, q.vec, q.opts)
	}
	if rt.dec.Choice() != "" {
		c.planner.Observe(rt.dec, time.Since(t0))
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return result{}, err
	}
	return res, nil
}

// validate checks q against the schema alone and resolves its vector field
// (0 for the multi-vector kinds, which use every field).
func (c *Collection) validate(q *Query) (int, error) {
	switch q.kind {
	case kindMulti, kindFused:
		return 0, c.checkFieldVectors(q)
	case kindBatch:
		return c.checkBatch(q)
	}
	f, err := c.checkVector(q.opts.Field, q.vec, q.opts.K)
	if err == nil && (q.pred != nil || q.kind == kindFiltered) {
		err = c.checkPred(q.pred)
	}
	return f, err
}

// checkVector resolves a vector field by name ("" is the first) and checks
// one query and k against it. These are the canonical request errors of
// every single-field search.
func (c *Collection) checkVector(field string, query []float32, k int) (int, error) {
	f := 0
	if field != "" {
		var err error
		if f, err = c.schema.VectorFieldIndex(field); err != nil {
			return 0, err
		}
	}
	if vf := &c.schema.VectorFields[f]; len(query) != vf.Dim {
		return 0, fmt.Errorf("core: query dim %d, field %q wants %d", len(query), vf.Name, vf.Dim)
	}
	if k <= 0 {
		return 0, fmt.Errorf("core: K must be positive")
	}
	return f, nil
}

// checkBatch checks an explicit batch: every query against the one field,
// and a metric the tile kernels decompose per query block.
func (c *Collection) checkBatch(q *Query) (f int, err error) {
	for _, v := range q.vecs {
		if f, err = c.checkVector(q.opts.Field, v, q.opts.K); err != nil {
			return 0, err
		}
	}
	if m := c.schema.VectorFields[f].Metric; !m.BatchEligible() {
		return 0, fmt.Errorf("core: metric %s does not decompose per query block", m)
	}
	return f, nil
}

// checkFieldVectors checks a one-vector-per-field request: counts, per-field
// dimensions, k, and for kindFused that the schema's metric and the weights
// are decomposable (Sec. 4.2).
func (c *Collection) checkFieldVectors(q *Query) error {
	fields := c.schema.VectorFields
	if len(q.vecs) != len(fields) {
		return fmt.Errorf("core: %d query vectors for %d fields", len(q.vecs), len(fields))
	}
	if q.weights != nil && len(q.weights) != len(fields) {
		return fmt.Errorf("core: %d weights for %d fields", len(q.weights), len(fields))
	}
	for i, v := range q.vecs {
		if _, err := c.checkVector(fields[i].Name, v, q.opts.K); err != nil {
			return err
		}
	}
	if q.kind == kindFused {
		return c.fusable(q.weights)
	}
	return nil
}

// checkPred checks every leaf of a predicate tree against the schema.
func (c *Collection) checkPred(p colstore.Pred) error {
	var children []colstore.Pred
	switch p := p.(type) {
	case colstore.RangePred:
		if p.Attr < 0 || p.Attr >= len(c.schema.AttrFields) {
			return fmt.Errorf("core: predicate references unknown attribute %d", p.Attr)
		}
	case colstore.InPred:
		if p.Cat < 0 || p.Cat >= len(c.schema.CatFields) {
			return fmt.Errorf("core: predicate references unknown categorical %d", p.Cat)
		}
		if len(p.Values) == 0 {
			return fmt.Errorf("core: at least one categorical value required")
		}
	case colstore.AndPred:
		children = p.Preds
	case colstore.OrPred:
		children = p.Preds
	case colstore.NotPred:
		children = []colstore.Pred{p.Pred}
	default:
		return fmt.Errorf("core: unknown predicate type %T", p)
	}
	for _, child := range children {
		if err := c.checkPred(child); err != nil {
			return err
		}
	}
	return nil
}

// plan picks the runner for q over the pinned snapshot and stamps the choice
// on the trace. The planner chooses where there is an alternative — prefilter
// vs pushdown for a predicate, from the zone-map / postings estimate (nothing
// is compiled or enumerated to decide) — and prices and labels the one venue
// an unfiltered vector query runs on. The multi-vector algorithm is fixed by
// the request and the schema; it is stamped plan_forced and not reported
// back to the planner.
func (c *Collection) plan(sn *Snapshot, f int, q *Query) route {
	tr := q.opts.Trace
	var rt route
	switch {
	case q.kind == kindFused || (q.kind == kindMulti && c.fusable(q.weights) == nil):
		rt = route{run: runFused, fused: c.fuseQuery(q.vecs, q.weights)}
		tr.Annotate("multi_algorithm", "fused")
		forcePlan(tr, "fused")
	case q.kind == kindMulti:
		rt.run = runIterative
		tr.Annotate("multi_algorithm", "iterative_merging")
		forcePlan(tr, "iterative_merging")
	case q.pred != nil:
		fs := c.filterShape(sn, f)
		fs.K = q.opts.K
		if q.opts.Nprobe > 0 {
			fs.Nprobe = q.opts.Nprobe
		}
		for _, seg := range sn.Segments {
			fs.Matched += colstore.EstimatePred(q.pred, seg)
		}
		// Plain ranges and IN-lists resolve to a row enumeration, so both
		// strategies are offered for them; arbitrary trees can only push down.
		switch q.pred.(type) {
		case colstore.RangePred, colstore.InPred:
			rt.dec = c.planner.PickFilterStrategy(fs)
		default:
			rt.dec = c.planner.PickPushdown(fs)
		}
		rt.run = runPushdown
		if rt.dec.Strategy == plan.StrategyPrefilter {
			rt.run = runPrefilter
		}
		annotatePlan(tr, rt.dec)
	case q.kind == kindBatch:
		rt = route{run: runBatch, dec: c.planVenue(sn, f, len(q.vecs), &q.opts)}
	default:
		rt.dec = c.planVenue(sn, f, 1, &q.opts)
	}
	return rt
}

// forcePlan records a plan the planner did not price.
func forcePlan(tr *obs.Trace, choice string) {
	tr.Annotate("plan", choice)
	tr.Annotate("plan_forced", "true")
}

// prefilterScan is strategy A (Sec. 4.1) over the pinned snapshot: the
// predicate's visible rows come from the sorted and inverted columns, and
// only those rows are compared against the query. Exact.
func (c *Collection) prefilterScan(ctx context.Context, sn *Snapshot, f int, queryVec []float32, pred colstore.Pred, opts SearchOptions) ([]topk.Result, error) {
	tr := opts.Trace
	tr.Annotate("filter_strategy", query.StratA)
	src := SourceView{c: c, sn: sn}
	span := tr.StartSpan("attr_filter")
	var rows []int64
	switch p := pred.(type) {
	case colstore.RangePred:
		rows = src.RangeRows(p.Attr, p.Lo, p.Hi)
	case colstore.InPred:
		rows = src.CatRows(p.Cat, p.Values...)
	}
	span.AnnotateInt("rows", int64(len(rows)))
	span.End()
	if len(rows) == 0 {
		return nil, nil
	}
	// A cancelled scan stops early with partial results; execute discards
	// them for ctx's error.
	vc := query.VecCond{Field: f, Query: queryVec, K: opts.K, Trace: tr, Ctx: ctx}
	return query.ExactScan(&src, rows, vc), nil
}

// pushdownSearch is strategy B with the compiled filter: the predicate
// becomes one bitset per segment of the pinned snapshot, ANDed with the
// segment's visibility bits, tested beneath each segment's scan or index.
func (c *Collection) pushdownSearch(ctx context.Context, sn *Snapshot, f int, queryVec []float32, pred colstore.Pred, opts SearchOptions) ([]topk.Result, error) {
	tr := opts.Trace
	tr.Annotate("filter_strategy", query.StratB)
	span := tr.StartSpan("attr_filter")
	pf, err := sn.compilePred(pred)
	if err != nil {
		span.End()
		return nil, err
	}
	defer pf.Release()
	span.AnnotateInt("rows", int64(pf.Matched))
	span.End()
	query.AnnotatePushed(tr, pf)
	if pf.Matched == 0 {
		return nil, nil
	}
	opts.segBits = pf.Handle().(pushedBits)
	return c.searchSnapshot(ctx, sn, f, queryVec, opts)
}
