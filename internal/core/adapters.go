package core

import (
	"context"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/topk"
)

// SourceView adapts a pinned snapshot of a collection to the query.Source
// and query.MultiSource interfaces, so the figures' attribute-filtering
// strategies (Sec. 4.1) and multi-vector algorithms (Sec. 4.2) and the
// benchmark's traced replay run over the LSM engine. Served queries do not
// use it: Query runs strategies A and B and iterative merging on the
// sweep, with errors. The strategy interfaces have no error result, so a
// sub-query or row read that fails here yields no rows. Release it when
// done.
type SourceView struct {
	c  *Collection
	sn *Snapshot
}

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

// RangeRows implements query.Source: each segment's visible rows in the
// range, compiled as strategy A's scan compiles them, in position order.
func (v *SourceView) RangeRows(attr int, lo, hi int64) []int64 {
	var out []int64
	for i, seg := range v.sn.Segments {
		b, err := seg.CompileFilter(colstore.RangePred{Attr: attr, Lo: lo, Hi: hi}, v.sn.visible[i], nil)
		if err != nil {
			return nil
		}
		for p := b.NextSet(0); p >= 0; p = b.NextSet(p + 1) {
			out = append(out, seg.IDs[p])
		}
		bitset.Put(b)
	}
	return out
}

// AttrValue implements query.Source.
func (v *SourceView) AttrValue(attr int, id int64) (int64, bool) {
	if seg := v.sn.holder(id); seg != nil {
		return seg.AttrByID(attr, id)
	}
	return 0, false
}

// VectorQuery implements query.Source.
func (v *SourceView) VectorQuery(field int, q []float32, k, nprobe int) []topk.Result {
	res, _ := v.search(q, SearchOptions{Field: v.c.schema.VectorFields[field].Name, K: k, Nprobe: nprobe}, nil)
	return res
}

// search runs one vector sub-query over the view's snapshot, pushed down
// beneath pred when it is set. It checks the query as any request's vector
// is checked, but is not counted, planned or admitted: the view's callers
// run inside an already-admitted query or outside the read path.
func (v *SourceView) search(q []float32, opts SearchOptions, pred colstore.Pred) ([]topk.Result, error) {
	f, err := v.c.checkVector(opts.Field, q, opts.K)
	if err != nil {
		return nil, err
	}
	//lint:allow ctxflow query.Source and MultiSource carry no context; the view serves figures, the benchmark's replay and tests
	ctx := context.TODO()
	if pred != nil {
		return v.c.searchPred(ctx, v.sn, f, q, pred, false, opts)
	}
	return v.c.searchSnapshot(ctx, v.sn, f, q, opts)
}

// DistanceByID implements query.Source.
func (v *SourceView) DistanceByID(field int, q []float32, id int64) (float32, bool) {
	seg := v.sn.holder(id)
	if seg == nil {
		return 0, false
	}
	row, ok, err := seg.VectorByID(field, id)
	if !ok || err != nil {
		return 0, false
	}
	return v.c.schema.VectorFields[field].Metric.Dist()(q, row), true
}

// Fields implements query.MultiSource.
func (v *SourceView) Fields() int { return len(v.c.schema.VectorFields) }

// FieldQuery implements query.MultiSource.
func (v *SourceView) FieldQuery(field int, q []float32, k int) []topk.Result {
	res, _ := v.search(q, SearchOptions{Field: v.c.schema.VectorFields[field].Name, K: k}, nil)
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
