package core

import (
	"context"
	"sync"

	"vectordb/internal/query"
	"vectordb/internal/topk"
)

// SourceView adapts a pinned snapshot of a collection to the query.Source
// and query.MultiSource interfaces, so the attribute-filtering strategies of
// Sec. 4.1 and the multi-vector algorithms of Sec. 4.2 run over the LSM
// engine. The strategy interfaces have no error result, so a sub-query or
// row read that fails yields no rows there and the view keeps its error
// for Err. Release it when done.
type SourceView struct {
	c  *Collection
	sn *Snapshot
	// Ctx, when set, cancels vector sub-queries issued through this view.
	// Nil means background (never cancelled).
	Ctx context.Context

	mu  sync.Mutex
	err error // the first failed sub-query's or row read's
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

// Err is the first error a sub-query or row read through the view met — a
// segment whose bytes could not be read, a rejected or cancelled
// sub-query — or nil. An answer read through a view that has one is
// missing rows.
func (v *SourceView) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// fail records err as the view's error unless one is recorded.
func (v *SourceView) fail(err error) {
	v.mu.Lock()
	if v.err == nil {
		v.err = err
	}
	v.mu.Unlock()
}

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
	return v.keep(v.search(q, SearchOptions{Field: v.c.schema.VectorFields[field].Name, K: k, Nprobe: nprobe}))
}

// search runs one vector sub-query over the view's snapshot. It checks the
// query as any request's vector is checked, but is not counted, planned or
// admitted: the view's callers run inside an already-admitted query.
func (v *SourceView) search(q []float32, opts SearchOptions) ([]topk.Result, error) {
	f, err := v.c.checkVector(opts.Field, q, opts.K)
	if err != nil {
		return nil, err
	}
	return v.c.searchSnapshot(v.ctx(), v.sn, f, q, opts)
}

// keep is a sub-query's rows for a strategy interface, which has no error
// result: a failed sub-query's error is the view's (Err), and its rows
// none.
func (v *SourceView) keep(res []topk.Result, err error) []topk.Result {
	if err != nil {
		v.fail(err)
	}
	return res
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
		vecRow, ok, err := seg.VectorByID(field, id)
		if err != nil {
			v.fail(err)
			return 0, false
		}
		if ok {
			return v.c.schema.VectorFields[field].Metric.Dist()(q, vecRow), true
		}
	}
	return 0, false
}

// Fields implements query.MultiSource.
func (v *SourceView) Fields() int { return len(v.c.schema.VectorFields) }

// FieldQuery implements query.MultiSource.
func (v *SourceView) FieldQuery(field int, q []float32, k int) []topk.Result {
	return v.keep(v.search(q, SearchOptions{Field: v.c.schema.VectorFields[field].Name, K: k}))
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
