package core

import (
	"context"

	"vectordb/internal/colstore"
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
	return v.search(field, q, SearchOptions{K: k, Nprobe: nprobe})
}

// search runs one vector sub-query over the view's snapshot. The strategy
// interfaces have no error result, so a rejected or cancelled sub-query
// yields no rows; callers that care inspect their ctx.
func (v *SourceView) search(field int, q []float32, opts SearchOptions) []topk.Result {
	opts.Field = v.c.schema.VectorFields[field].Name
	res, err := v.c.SearchSnapshotCtx(v.ctx(), v.sn, q, opts)
	if err != nil {
		return nil
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
		if vecRow, ok := seg.VectorByID(field, id); ok {
			return v.c.schema.VectorFields[field].Metric.Dist()(q, vecRow), true
		}
	}
	return 0, false
}

// MultiSource pins the current snapshot and returns its view, named for the
// query.MultiSource side of it.
func (c *Collection) MultiSource() *SourceView { return c.Source() }

// Fields implements query.MultiSource.
func (v *SourceView) Fields() int { return len(v.c.schema.VectorFields) }

// FieldQuery implements query.MultiSource.
func (v *SourceView) FieldQuery(field int, q []float32, k int) []topk.Result {
	return v.search(field, q, SearchOptions{K: k})
}

// FieldDistance implements query.MultiSource.
func (v *SourceView) FieldDistance(field int, q []float32, id int64) (float32, bool) {
	return v.DistanceByID(field, q, id)
}

// SearchFiltered runs an attribute-filtered vector query using the
// cost-based planner over the current snapshot — the default filtering
// path of the public API and the REST server.
func (c *Collection) SearchFiltered(queryVec []float32, attrName string, lo, hi int64, opts SearchOptions) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return c.SearchFilteredCtx(context.Background(), queryVec, attrName, lo, hi, opts)
}

// SearchFilteredCtx is SearchFiltered with admission control and
// cancellation: lo ≤ attr ≤ hi as a RangePred on the predicate path, where
// the planner picks pushdown (strategy B) or the attribute-first exact scan
// (strategy A) per query from the zone-map-estimated selectivity.
func (c *Collection) SearchFilteredCtx(ctx context.Context, queryVec []float32, attrName string, lo, hi int64, opts SearchOptions) ([]topk.Result, error) {
	attr, err := c.schema.AttrFieldIndex(attrName)
	if err != nil {
		return nil, err
	}
	return c.SearchPredCtx(ctx, queryVec, colstore.RangePred{Attr: attr, Lo: lo, Hi: hi}, opts)
}

// SearchMultiVector runs a multi-vector query over the current snapshot:
// vector fusion when the schema's metric and the weights are decomposable,
// iterative merging otherwise (Sec. 4.2's guidance).
func (c *Collection) SearchMultiVector(queries [][]float32, weights []float32, k int) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return c.SearchMultiVectorCtx(context.Background(), queries, weights, k)
}

// SearchMultiVectorCtx is SearchMultiVector with admission control and
// cancellation; the whole query runs under one in-flight slot.
func (c *Collection) SearchMultiVectorCtx(ctx context.Context, queries [][]float32, weights []float32, k int) ([]topk.Result, error) {
	res, err := c.execute(ctx, &Query{kind: kindMulti, vecs: queries, weights: weights, opts: SearchOptions{K: k}})
	return res.hits, err
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

// SearchCategorical runs a vector query restricted to entities whose
// categorical field matches ANY of values — the inverted-list filtering of
// the Sec. 2.1 extension.
func (c *Collection) SearchCategorical(queryVec []float32, catName string, values []string, opts SearchOptions) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return c.SearchCategoricalCtx(context.Background(), queryVec, catName, values, opts)
}

// SearchCategoricalCtx is SearchCategorical with admission control and
// cancellation: the IN-list as an InPred on the predicate path.
func (c *Collection) SearchCategoricalCtx(ctx context.Context, queryVec []float32, catName string, values []string, opts SearchOptions) ([]topk.Result, error) {
	cat, err := c.schema.CatFieldIndex(catName)
	if err != nil {
		return nil, err
	}
	res, err := c.execute(ctx, &Query{kind: kindCategorical, vec: queryVec, pred: colstore.InPred{Cat: cat, Values: values}, opts: opts})
	return res.hits, err
}
