package core

import (
	"context"

	"vectordb/internal/query"
	"vectordb/internal/topk"
)

// SourceView adapts a pinned snapshot of a collection to the query.Source
// and query.MultiSource interfaces, so the attribute-filtering strategies of
// Sec. 4.1 and the multi-vector algorithms of Sec. 4.2 run over the LSM
// engine. Release it when done.
type SourceView struct {
	c  *Collection
	sn *Snapshot
	// Ctx, when set, cancels vector sub-queries issued through this view.
	// Nil means background (never cancelled).
	Ctx context.Context
}

var (
	_ query.Source      = (*SourceView)(nil)
	_ query.MultiSource = (*SourceView)(nil)
)

// Source pins the current snapshot and returns its Source adapter.
func (c *Collection) Source() *SourceView {
	return &SourceView{c: c, sn: c.snaps.acquire()}
}

// Release unpins the underlying snapshot.
func (v *SourceView) Release() { v.c.snaps.release(v.sn) }

// TotalRows implements query.Source (visible rows).
func (v *SourceView) TotalRows() int { return v.sn.LiveRows() }

// CountRange implements query.Source. Tombstoned rows are included in the
// estimate — selectivity estimation tolerates that slack.
func (v *SourceView) CountRange(attr int, lo, hi int64) int {
	n := 0
	for _, seg := range v.sn.Segments {
		n += seg.Attrs[attr].CountRange(lo, hi)
	}
	return n
}

// RangeRows implements query.Source, resolving through each segment's
// sorted attribute column and hiding tombstoned rows.
func (v *SourceView) RangeRows(attr int, lo, hi int64) []int64 {
	var out []int64
	for _, seg := range v.sn.Segments {
		for _, id := range seg.Attrs[attr].RangeRows(lo, hi) {
			if v.sn.deletedCovers(id, seg.ID) {
				continue
			}
			out = append(out, id)
		}
	}
	return out
}

// AttrValue implements query.Source.
func (v *SourceView) AttrValue(attr int, id int64) (int64, bool) {
	for i := len(v.sn.Segments) - 1; i >= 0; i-- {
		seg := v.sn.Segments[i]
		if v.sn.deletedCovers(id, seg.ID) {
			continue
		}
		if val, ok := seg.AttrByID(attr, id); ok {
			return val, true
		}
	}
	return 0, false
}

// VectorQuery implements query.Source.
func (v *SourceView) VectorQuery(field int, q []float32, k, nprobe int) []topk.Result {
	res, _ := v.search(q, SearchOptions{Field: v.c.schema.VectorFields[field].Name, K: k, Nprobe: nprobe})
	return res
}

// search runs one vector sub-query over the view's snapshot. It checks the
// query as any request's vector is checked, but is not counted, planned or
// admitted: the view's callers run inside an already-admitted query. The
// strategy interfaces have no error result, so there a rejected or
// cancelled sub-query yields no rows; callers that care inspect their ctx.
func (v *SourceView) search(q []float32, opts SearchOptions) ([]topk.Result, error) {
	f, err := v.c.checkVector(opts.Field, q, opts.K)
	if err != nil {
		return nil, err
	}
	return v.c.searchSnapshot(v.ctx(), v.sn, f, q, opts)
}

func (v *SourceView) ctx() context.Context {
	if v.Ctx != nil {
		return v.Ctx
	}
	//lint:allow ctxflow nil-Ctx view means detached-from-request by documented contract
	return context.Background()
}

// DistanceByID implements query.Source.
func (v *SourceView) DistanceByID(field int, q []float32, id int64) (float32, bool) {
	for i := len(v.sn.Segments) - 1; i >= 0; i-- {
		seg := v.sn.Segments[i]
		if v.sn.deletedCovers(id, seg.ID) {
			continue
		}
		if vecRow, ok := seg.VectorByID(field, id); ok {
			return v.c.schema.VectorFields[field].Metric.Dist()(q, vecRow), true
		}
	}
	return 0, false
}

// Fields implements query.MultiSource.
func (v *SourceView) Fields() int { return len(v.c.schema.VectorFields) }

// FieldQuery implements query.MultiSource.
func (v *SourceView) FieldQuery(field int, q []float32, k int) []topk.Result {
	res, _ := v.search(q, SearchOptions{Field: v.c.schema.VectorFields[field].Name, K: k})
	return res
}

// FieldDistance implements query.MultiSource.
func (v *SourceView) FieldDistance(field int, q []float32, id int64) (float32, bool) {
	return v.DistanceByID(field, q, id)
}

// SearchFilteredCtx is Query of one vector with lo ≤ attrName ≤ hi.
func (c *Collection) SearchFilteredCtx(ctx context.Context, queryVec []float32, attrName string, lo, hi int64, opts SearchOptions) ([]topk.Result, error) {
	pred, err := c.schema.RangePred(attrName, lo, hi)
	if err != nil {
		return nil, err
	}
	res, err := c.Query(ctx, Request{Vector: queryVec, Pred: pred, SearchOptions: opts})
	return res.Hits, err
}

// CatRows returns the IDs whose categorical field matches any of values,
// resolved through each segment's inverted lists and hiding tombstones.
func (v *SourceView) CatRows(cat int, values ...string) []int64 {
	var out []int64
	for _, seg := range v.sn.Segments {
		for _, val := range values {
			for _, id := range seg.Cats[cat].Rows(val) {
				if v.sn.deletedCovers(id, seg.ID) {
					continue
				}
				out = append(out, id)
			}
		}
	}
	return out
}
