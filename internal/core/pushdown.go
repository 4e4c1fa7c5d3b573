package core

import (
	"context"
	"fmt"
	"time"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/plan"
	"vectordb/internal/query"
	"vectordb/internal/topk"
)

// predRows enumerates the qualifying visible row IDs for predicates the
// engine can resolve directly through the sorted/inverted columns (the
// prefilter path's input). Callers gate on the predicate type; arbitrary
// trees return nil.
func predRows(src *SourceView, pred colstore.Pred) []int64 {
	switch p := pred.(type) {
	case colstore.RangePred:
		return src.RangeRows(p.Attr, p.Lo, p.Hi)
	case colstore.InPred:
		return src.CatRows(p.Cat, p.Values...)
	}
	return nil
}

// AttrColumn and CatColumn (with Rows) make a segment the predicate
// compiler's colstore.PredColumns: its sorted and inverted columns carry
// build positions — the bit index every scan and index path agrees on — so
// nothing on the filter path resolves a row ID through posOf.
func (s *Segment) AttrColumn(attr int) *colstore.AttributeColumn {
	if attr < 0 || attr >= len(s.Attrs) {
		return nil
	}
	return s.Attrs[attr]
}

func (s *Segment) CatColumn(cat int) *colstore.CategoricalColumn {
	if cat < 0 || cat >= len(s.Cats) {
		return nil
	}
	return s.Cats[cat]
}

// CompileFilter compiles the segment's visible rows satisfying pred into a
// pooled bitset over build positions: the predicate's matches with the
// positions that deleted hides cleared. deleted holds sequence-scoped
// tombstones as Snapshot.Deleted does. This is the one filter compile
// under every pushed-down search — the collection's snapshot paths and the
// cluster readers. The caller releases the result with bitset.Put.
func (s *Segment) CompileFilter(pred colstore.Pred, deleted map[int64]int64) (*bitset.Bitset, error) {
	b := bitset.Get(s.Rows())
	if err := colstore.CompilePred(pred, s, b); err != nil {
		bitset.Put(b)
		return nil, err
	}
	for id, seq := range deleted {
		if s.ID <= seq {
			if p, ok := s.posOf(id); ok {
				b.Clear(int(p))
			}
		}
	}
	return b, nil
}

// pushedBits is the compiled filter payload for one pinned snapshot: a
// pooled bitset per segment, keyed by segment ID, over build positions,
// with tombstoned rows already cleared.
type pushedBits struct {
	bits map[int64]*bitset.Bitset
}

func (pb *pushedBits) release() {
	for _, b := range pb.bits {
		bitset.Put(b)
	}
	pb.bits = nil
}

// compileSnapshotPred compiles pred against every segment of the pinned
// snapshot (Segment.CompileFilter), so no hidden or filtered-out row can
// surface from the pushed scan. Returns the payload plus the matched
// (visible) and total physical row counts.
func (v *SourceView) compileSnapshotPred(pred colstore.Pred) (*pushedBits, int, int, error) {
	pb := &pushedBits{bits: make(map[int64]*bitset.Bitset, len(v.sn.Segments))}
	matched, total := 0, 0
	for _, seg := range v.sn.Segments {
		b, err := seg.CompileFilter(pred, v.sn.Deleted)
		if err != nil {
			pb.release()
			return nil, 0, 0, err
		}
		pb.bits[seg.ID] = b
		matched += b.Count()
		total += seg.Rows()
	}
	return pb, matched, total, nil
}

var _ query.PushdownSource = (*SourceView)(nil)

// CompileRange implements query.PushdownSource: the range constraint
// becomes per-segment bitsets resolved through the sorted columns'
// zone-map walks.
func (v *SourceView) CompileRange(attr int, lo, hi int64) (*query.PushedFilter, bool) {
	if attr < 0 || attr >= len(v.c.schema.AttrFields) {
		return nil, false
	}
	pb, matched, total, err := v.compileSnapshotPred(colstore.RangePred{Attr: attr, Lo: lo, Hi: hi})
	if err != nil {
		return nil, false
	}
	sel := 0.0
	if total > 0 {
		sel = float64(matched) / float64(total)
	}
	return query.NewPushedFilter(matched, total, index.FilterModeName(sel), pb, pb.release), true
}

// VectorQueryPushed implements query.PushdownSource: normal snapshot search
// with the per-segment bitsets applied beneath each segment's scan or index.
func (v *SourceView) VectorQueryPushed(field int, q []float32, k, nprobe int, pf *query.PushedFilter) []topk.Result {
	pb, ok := pf.Handle().(*pushedBits)
	if !ok {
		return v.VectorQuery(field, q, k, nprobe, nil)
	}
	res, err := v.c.searchSnapshot(v.ctx(), v.sn, q, SearchOptions{
		Field:   v.c.schema.VectorFields[field].Name,
		K:       k,
		Nprobe:  nprobe,
		Trace:   v.Trace,
		segBits: pb.bits,
	})
	if err != nil {
		return nil
	}
	return res
}

// SearchPred runs a vector query restricted to entities satisfying an
// arbitrary predicate tree — numeric ranges, categorical IN-lists, and
// and/or/not combinations — compiled to per-segment bitsets and pushed
// beneath the index scans (strategy B with the compiled filter).
func (c *Collection) SearchPred(queryVec []float32, pred colstore.Pred, opts SearchOptions) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return c.SearchPredCtx(context.Background(), queryVec, pred, opts)
}

// SearchPredCtx is SearchPred with admission control and cancellation.
// Before compiling anything, the planner prices the pushdown against the
// attribute-first exact scan from the zone-map/postings estimate of the
// predicate's match count; highly selective enumerable predicates (plain
// ranges and IN-lists) take the prefilter path instead of paying the O(n)
// bitset compile.
func (c *Collection) SearchPredCtx(ctx context.Context, queryVec []float32, pred colstore.Pred, opts SearchOptions) ([]topk.Result, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive")
	}
	done := c.beginQuery("filtered", &opts.Trace)
	defer done()
	tr := opts.Trace
	tr.Annotate("placement", "cpu")
	release, err := c.admit(ctx, tr)
	if err != nil {
		return nil, err
	}
	defer release()
	field := 0
	if opts.Field != "" {
		if field, err = c.schema.VectorFieldIndex(opts.Field); err != nil {
			return nil, err
		}
	}
	src := c.Source()
	src.Trace = tr
	src.Ctx = ctx
	defer src.Release()
	// Price the strategies from the zone-map/postings estimate — nothing
	// is compiled or enumerated to decide. Plain ranges and IN-lists can
	// be resolved to a row enumeration, so both strategies are offered for
	// them; arbitrary trees can only push down.
	est := 0
	for _, seg := range src.sn.Segments {
		est += colstore.EstimatePred(pred, seg)
	}
	fs := src.PlanFilterShape(field)
	fs.Dim = c.schema.VectorFields[field].Dim
	fs.K = opts.K
	if opts.Nprobe > 0 {
		fs.Nprobe = opts.Nprobe
	}
	fs.Matched = est
	enumerable := false
	switch pred.(type) {
	case colstore.RangePred, colstore.InPred:
		enumerable = true
	}
	var dec plan.Decision
	if enumerable {
		dec = c.planner.PickFilterStrategy(fs)
	} else {
		dec = c.planner.PickPushdown(fs)
	}
	annotatePlan(tr, dec)
	t0 := time.Now()
	defer func() { c.planner.Observe(dec, time.Since(t0)) }()
	if dec.Strategy == plan.StrategyPrefilter {
		tr.Annotate("filter_strategy", query.StratA)
		rows := predRows(src, pred)
		scan := tr.StartSpan("exact_scan")
		scan.AnnotateInt("rows", int64(len(rows)))
		defer scan.End()
		h := topk.New(opts.K)
		for i, id := range rows {
			if i&255 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if d, ok := src.DistanceByID(field, queryVec, id); ok {
				h.Push(id, d)
			}
		}
		return h.Results(), nil
	}
	span := tr.StartSpan("attr_filter")
	pb, matched, total, err := src.compileSnapshotPred(pred)
	if err != nil {
		span.End()
		return nil, err
	}
	defer pb.release()
	span.AnnotateInt("rows", int64(matched))
	span.End()
	sel := 0.0
	if total > 0 {
		sel = float64(matched) / float64(total)
	}
	tr.Annotate("filter_strategy", query.StratB)
	query.AnnotatePushed(tr, query.NewPushedFilter(matched, total, index.FilterModeName(sel), nil, nil))
	if matched == 0 {
		return nil, ctx.Err()
	}
	o := opts
	o.segBits = pb.bits
	res, err := c.searchSnapshot(ctx, src.sn, queryVec, o)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
