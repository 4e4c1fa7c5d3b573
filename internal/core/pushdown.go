package core

import (
	"context"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/query"
	"vectordb/internal/topk"
)

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
// pooled bitset over build positions: the predicate's matches ANDed with
// visible, the segment's resolved visibility bits (nil hides nothing). This
// is the one filter compile under every pushed-down search — the
// collection's snapshot paths and the cluster readers. The caller releases
// the result with bitset.Put.
func (s *Segment) CompileFilter(pred colstore.Pred, visible *bitset.Bitset) (*bitset.Bitset, error) {
	b := bitset.Get(s.Rows())
	if err := colstore.CompilePred(pred, s, b); err != nil {
		bitset.Put(b)
		return nil, err
	}
	if visible != nil {
		b.And(visible)
	}
	return b, nil
}

// pushedBits is the compiled filter payload for one pinned snapshot: a
// pooled bitset over build positions per segment, in segment order, with
// hidden rows already cleared.
type pushedBits []*bitset.Bitset

func (pb pushedBits) release() {
	for _, b := range pb {
		bitset.Put(b)
	}
}

// compilePred compiles pred against every segment of the pinned snapshot
// (Segment.CompileFilter), so no hidden or filtered-out row can surface from
// the pushed scan. The filter's handle is a pushedBits; it carries the
// matched (visible) and total physical row counts.
func (sn *Snapshot) compilePred(pred colstore.Pred) (*query.PushedFilter, error) {
	bits := make(pushedBits, 0, len(sn.Segments))
	matched, total := 0, 0
	for i, seg := range sn.Segments {
		b, err := seg.CompileFilter(pred, sn.visible[i])
		if err != nil {
			bits.release()
			return nil, err
		}
		bits = append(bits, b)
		matched += b.Count()
		total += seg.Rows()
	}
	sel := 0.0
	if total > 0 {
		sel = float64(matched) / float64(total)
	}
	return query.NewPushedFilter(matched, total, index.FilterModeName(sel), bits, bits.release), nil
}

// CompileRange implements query.Source: the range constraint
// becomes per-segment bitsets resolved through the sorted columns'
// zone-map walks; an unknown attribute fails the compile.
func (v *SourceView) CompileRange(attr int, lo, hi int64) (*query.PushedFilter, bool) {
	pf, err := v.sn.compilePred(colstore.RangePred{Attr: attr, Lo: lo, Hi: hi})
	return pf, err == nil
}

// VectorQueryPushed implements query.Source: normal snapshot search
// with the per-segment bitsets applied beneath each segment's scan or index.
func (v *SourceView) VectorQueryPushed(field int, q []float32, k, nprobe int, pf *query.PushedFilter) []topk.Result {
	opts := SearchOptions{K: k, Nprobe: nprobe}
	opts.segBits, _ = pf.Handle().(pushedBits)
	return v.search(field, q, opts)
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
	res, err := c.execute(ctx, &Query{kind: kindFiltered, vec: queryVec, pred: pred, opts: opts})
	return res.hits, err
}
