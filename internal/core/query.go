package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"vectordb/internal/colstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
)

// Request is one read: exactly one of Vector (a top-k query against one
// field), Batch (len(Batch) queries against one field, answered in input
// order) or Fields (one query per vector field, aggregated by the weighted
// sum of Sec. 4.2 with Weights, nil meaning all 1), an optional attribute
// predicate on a Vector request (range, IN-list or a tree of them, Sec. 4.1),
// and the options every shape shares. Query answers it.
type Request struct {
	Vector  []float32
	Batch   [][]float32
	Fields  [][]float32
	Weights []float32
	Pred    colstore.Pred
	SearchOptions
}

// Response is a request's answer: Hits for every shape but Batch, whose
// per-query hits fill Batch in input order.
type Response struct {
	Hits  []topk.Result
	Batch [][]topk.Result
}

// kind is q's vectordb_query_total type label, read off its shape.
func (q *Request) kind() queryKind {
	switch {
	case q.Fields != nil:
		return kindMulti
	case q.Batch != nil:
		return kindBatch
	case q.Pred == nil:
		return kindVector
	}
	if _, ok := q.Pred.(colstore.InPred); ok {
		return kindCategorical
	}
	return kindFiltered
}

// queryKind is a Request's shape: vectordb_query_total's type label and
// its trace's name.
type queryKind uint8

const (
	kindVector queryKind = iota
	kindBatch
	kindMulti
	kindFiltered
	kindCategorical
	numQueryKinds
)

var queryKindNames = [numQueryKinds]string{"vector", "batch", "multi", "filtered", "categorical"}

func (k queryKind) String() string { return queryKindNames[k] }

// runner names the ways a planned query runs over a pinned snapshot. Every
// runner reaches the segments through the one sweep (Collection.sweep) with
// a per-segment body of its own.
type runner uint8

const (
	runSegments  runner = iota // per-segment sweep
	runBatch                   // one sweep shared by an explicit batch, or by a slot holder and its peers
	runFused                   // one sweep of the aggregated query over the concatenated fields
	runIterative               // iterative merging over per-field sweeps
	runPrefilter               // strategy A: the predicate's rows of each segment, scanned without its index
	runPushdown                // strategy B: the predicate compiled to bitsets beneath each segment's index or scan
)

// route is the plan step's output. dec is zero when the runner was fixed by
// the request or the schema rather than priced.
type route struct {
	run   runner
	dec   plan.Decision
	fused []float32 // runFused: the aggregated query
}

// Query is the collection's one read path (Sec. 2.3, 5.2): validate the
// request against its shape and the schema, count and trace it, take a run
// slot, pin the current snapshot, plan, run the planned runner over that
// snapshot, and report the elapsed time back to the planner. A plain vector
// query may instead be taken along as a peer by another query's slot, and
// then only waits for that holder's answer. Validation comes first so a
// malformed request is never counted, never holds a slot and never reaches
// a heap or a kernel. A cancelled query returns ctx's error, not partial
// results.
func (c *Collection) Query(ctx context.Context, q Request) (Response, error) {
	f, err := c.validate(&q)
	if err != nil {
		return Response{}, err
	}
	done := c.beginQuery(q.kind(), &q.Trace)
	defer done()
	tr := q.Trace
	it, key := c.formable(ctx, f, &q)
	slot, err := c.admit(ctx, tr, it, key)
	if err != nil {
		return Response{}, err
	}
	defer slot.Release()
	if slot.Joined {
		return awaitBatch(ctx, it, tr)
	}
	items := batchItems(ctx, &q, it, slot.Peers)
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)

	planSpan := tr.Start(obs.Plan)
	rt := c.plan(sn, f, &q, items)
	tr.SetInt(obs.PlanSegments, int64(len(sn.Segments)))
	planSpan.End()

	var res Response
	t0 := time.Now()
	switch rt.run {
	case runBatch:
		tr.SetInt(obs.BatchOccupancy, int64(len(items)))
		c.searchBatch(sn, tr, c.batchFormKey(f, &q.SearchOptions), rt.dec, items)
		res, err = batchResult(&q, items)
	case runFused:
		res.Hits, err = c.searchFused(ctx, sn, rt.fused, q.SearchOptions)
	case runIterative:
		res.Hits, err = c.searchIterative(ctx, sn, &q)
	case runPrefilter, runPushdown:
		res.Hits, err = c.searchPred(ctx, sn, f, q.Vector, q.Pred, rt.run == runPrefilter, q.SearchOptions)
	default:
		res.Hits, err = c.searchSnapshot(ctx, sn, f, q.Vector, q.SearchOptions)
	}
	if rt.dec.Choice() != "" {
		c.planner.Observe(rt.dec, time.Since(t0))
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return Response{}, err
	}
	return res, nil
}

// validate checks q's shape, then q against the schema alone, and resolves
// its vector field (0 for a Fields request, which uses every field).
func (c *Collection) validate(q *Request) (int, error) {
	shapes := 0
	for _, set := range []bool{q.Vector != nil, q.Batch != nil, q.Fields != nil} {
		if set {
			shapes++
		}
	}
	switch {
	case shapes != 1:
		return 0, fmt.Errorf("core: a request sets exactly one of Vector, Batch and Fields, not %d", shapes)
	case q.Weights != nil && q.Fields == nil:
		return 0, fmt.Errorf("core: Weights apply to a Fields request only")
	case q.Pred != nil && q.Vector == nil:
		return 0, fmt.Errorf("core: a predicate applies to a Vector request only")
	case q.Fields != nil:
		return 0, c.checkFieldVectors(q)
	case q.Batch != nil:
		return c.checkBatch(q)
	}
	f, err := c.checkVector(q.Field, q.Vector, q.K)
	if err == nil && q.Pred != nil {
		err = c.checkPred(q.Pred)
	}
	return f, err
}

// checkVector resolves a vector field by name ("" is the first) and checks
// one query (Schema.CheckVector) and k against it. These are the canonical
// request errors of every single-field search.
func (c *Collection) checkVector(field string, query []float32, k int) (int, error) {
	f := 0
	if field != "" {
		var err error
		if f, err = c.schema.VectorFieldIndex(field); err != nil {
			return 0, err
		}
	}
	if err := c.schema.CheckVector(f, query); err != nil {
		return 0, err
	}
	if k <= 0 {
		return 0, fmt.Errorf("core: K must be positive")
	}
	return f, nil
}

// checkBatch checks an explicit batch: every query against the one field,
// and a metric the tile kernels decompose per query block.
func (c *Collection) checkBatch(q *Request) (f int, err error) {
	for _, v := range q.Batch {
		if f, err = c.checkVector(q.Field, v, q.K); err != nil {
			return 0, err
		}
	}
	if m := c.schema.VectorFields[f].Metric; !m.BatchEligible() {
		return 0, fmt.Errorf("core: metric %s does not decompose per query block", m)
	}
	return f, nil
}

// checkFieldVectors checks a one-vector-per-field request: counts, each
// field's query, finite weights and k.
func (c *Collection) checkFieldVectors(q *Request) error {
	fields := c.schema.VectorFields
	if len(q.Fields) != len(fields) {
		return fmt.Errorf("core: %d query vectors for %d fields", len(q.Fields), len(fields))
	}
	if q.Weights != nil && len(q.Weights) != len(fields) {
		return fmt.Errorf("core: %d weights for %d fields", len(q.Weights), len(fields))
	}
	if i := slices.IndexFunc(q.Weights, nonFinite); i >= 0 {
		return fmt.Errorf("core: weight %d is NaN or ±Inf", i)
	}
	for i, v := range q.Fields {
		if _, err := c.checkVector(fields[i].Name, v, q.K); err != nil {
			return err
		}
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
// the schema and the weights (fusion when they decompose); it is stamped
// plan_forced and not reported back to the planner. items is the batch q
// runs as, nil when it runs alone.
func (c *Collection) plan(sn *Snapshot, f int, q *Request, items []*batchItem) route {
	tr := q.Trace
	var rt route
	switch {
	case q.Fields != nil && c.fusable(q.Weights) == nil:
		rt = route{run: runFused, fused: c.fuseQuery(q.Fields, q.Weights)}
		forcePlan(tr, "fused")
	case q.Fields != nil:
		rt.run = runIterative
		forcePlan(tr, "iterative_merging")
	case q.Pred != nil:
		fs := c.filterShape(sn, f)
		fs.K = q.K
		if q.Nprobe > 0 {
			fs.Nprobe = q.Nprobe
		}
		for _, seg := range sn.Segments {
			fs.Matched += colstore.EstimatePred(q.Pred, seg)
		}
		// Plain ranges and IN-lists resolve to a row enumeration, so both
		// strategies are offered for them; arbitrary trees can only push down.
		switch q.Pred.(type) {
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
	case items != nil:
		rt = route{run: runBatch, dec: c.planVenue(sn, f, len(items), &q.SearchOptions)}
	default:
		rt.dec = c.planVenue(sn, f, 1, &q.SearchOptions)
	}
	return rt
}

// forcePlan records a multi-vector algorithm as a plan the planner did not
// price.
func forcePlan(tr *obs.QueryRecord, alg string) {
	tr.SetString(obs.MultiAlgorithm, alg)
	tr.SetString(obs.PlanChoice, alg)
	tr.SetString(obs.PlanForced, "true")
}

// iterativeThreshold is the largest per-field k′ iterative merging fetches
// before it falls back to rescoring the candidate union.
const iterativeThreshold = 16384

// searchIterative is iterative merging (Sec. 4.2, Alg. 2) over the pinned
// snapshot: each field's top-k′ is a sweep of that field with q's options,
// and the fallback's exact aggregate reads each candidate's vectors from
// the snapshot. A failed sweep or row read, or ctx, ends it with its error.
func (c *Collection) searchIterative(ctx context.Context, sn *Snapshot, q *Request) ([]topk.Result, error) {
	fields := c.schema.VectorFields
	return topk.IterativeMerging(len(fields), q.Weights, q.K, iterativeThreshold,
		func(f, kp int) ([]topk.Result, error) {
			opts := q.SearchOptions
			opts.K = kp
			return c.searchSnapshot(ctx, sn, f, q.Fields[f], opts)
		},
		func(id int64, w []float32) (float32, bool, error) {
			seg := sn.holder(id)
			if seg == nil {
				return 0, false, ctx.Err()
			}
			var s float32
			for f, vf := range fields {
				row, _, err := seg.VectorByID(f, id)
				if err != nil {
					return 0, false, err
				}
				s += w[f] * vf.Metric.Dist()(q.Fields[f], row)
			}
			return s, true, ctx.Err()
		})
}
