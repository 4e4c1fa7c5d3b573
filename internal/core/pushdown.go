package core

import (
	"vectordb/internal/bitset"
	"vectordb/internal/bufferpool"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
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
// visible, the segment's resolved visibility bits (nil hides nothing).
// With at nil every position is exact; with at set only those positions
// are (colstore.CompilePred). The caller releases the result with
// bitset.Put.
func (s *Segment) CompileFilter(pred colstore.Pred, visible *bitset.Bitset, at []int32) (*bitset.Bitset, error) {
	b := bitset.Get(s.Rows())
	if err := colstore.CompilePred(pred, s, b, at); err != nil {
		bitset.Put(b)
		return nil, err
	}
	if visible != nil {
		b.And(visible)
	}
	return b, nil
}

// SearchFiltered is a segment's one filtered search, for Query's
// pushdown and the cluster readers: pred is compiled with p.Bits (the
// segment's visibility, nil hides nothing) ANDed in and pushed beneath the
// index or scan. An IVF-family index ranks its buckets first, and pred is
// resolved only at the probed buckets' positions, the only bits the probe
// reads; other segments compile every position. With count set it returns
// how many resolved positions passed (matched) of how many were (probed).
func (s *Segment) SearchFiltered(h *topk.Heap, schema *Schema, field int, query []float32, pred colstore.Pred, p index.SearchParams, count bool) (matched, probed int, err error) {
	var at []int32
	if iv, ok := unwrapIndex(s.Index(field)).(*ivf.IVF); ok {
		p.Probes = iv.ProbeOrder(query, p.Nprobe)
		ap := bufferpool.GetInt32s(0)
		defer bufferpool.PutInt32s(ap)
		at = iv.ProbedPositions(*ap, p.Probes)
		*ap = at // a grown list goes back to the pool
	}
	b, err := s.CompileFilter(pred, p.Bits, at)
	if err != nil {
		return 0, 0, err
	}
	defer bitset.Put(b)
	p.Bits = b
	if err := s.SearchInto(h, schema, field, query, p); err != nil {
		return 0, 0, err
	}
	switch {
	case !count:
		return 0, 0, nil
	case at == nil:
		return b.Count(), s.Rows(), nil
	}
	return b.CountAt(at), len(at), nil
}

// scanField is the field a sweep that uses no segment's index names
// (strategy A, the fused scan): every segment counts as a segment_scan.
const scanField = -2

// scanFiltered is strategy A's search of one segment (Sec. 4.1), the
// counterpart of SearchFiltered without the index: pred is compiled at
// every position with p.Bits ANDed in, and those rows are scored by the
// segment's scan (scanInto). It always returns how many rows passed
// (matched) of the segment's (probed): a strategy A query none of whose
// rows pass answers nil. The unused flag keeps SearchFiltered's signature.
func (s *Segment) scanFiltered(h *topk.Heap, schema *Schema, field int, query []float32, pred colstore.Pred, p index.SearchParams, _ bool) (matched, probed int, err error) {
	b, err := s.CompileFilter(pred, p.Bits, nil)
	if err != nil {
		return 0, 0, err
	}
	defer bitset.Put(b)
	p.Bits = b
	if err := s.scanInto(h, schema, field, query, p); err != nil {
		return 0, 0, err
	}
	return b.Count(), s.Rows(), nil
}

// compilePred resolves pred at every position of every segment of the
// pinned snapshot for SourceView's strategy B, which needs the matched
// (visible) and total row counts before its search. The filter's handle is
// pred itself: the pushed search compiles it again in each segment's task,
// at the positions that search reads (Segment.SearchFiltered).
func (sn *Snapshot) compilePred(pred colstore.Pred) (*colstore.PushedFilter, error) {
	matched, total := 0, 0
	for i, seg := range sn.Segments {
		b, err := seg.CompileFilter(pred, sn.visible[i], nil)
		if err != nil {
			return nil, err
		}
		matched += b.Count()
		total += seg.Rows()
		bitset.Put(b)
	}
	sel := 0.0
	if total > 0 {
		sel = float64(matched) / float64(total)
	}
	return colstore.NewPushedFilter(matched, total, index.FilterModeName(sel), pred, nil), nil
}

// CompileRange implements query.Source: the range constraint is counted
// through per-segment bitsets resolved by the sorted columns' zone-map
// walks; an unknown attribute fails the compile.
func (v *SourceView) CompileRange(attr int, lo, hi int64) (*colstore.PushedFilter, bool) {
	pf, err := v.sn.compilePred(colstore.RangePred{Attr: attr, Lo: lo, Hi: hi})
	return pf, err == nil
}

// VectorQueryPushed implements query.Source: the snapshot search Query's
// pushdown runs, each segment's filtered search compiling the predicate
// beneath its scan or index.
func (v *SourceView) VectorQueryPushed(field int, q []float32, k, nprobe int, pf *colstore.PushedFilter) []topk.Result {
	pred, _ := pf.Handle().(colstore.Pred)
	res, _ := v.search(q, SearchOptions{Field: v.c.schema.VectorFields[field].Name, K: k, Nprobe: nprobe}, pred)
	return res
}
