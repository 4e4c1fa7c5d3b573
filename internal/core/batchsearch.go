package core

import (
	"context"
	"sync/atomic"

	"vectordb/internal/batchform"
	"vectordb/internal/bitset"
	"vectordb/internal/bufferpool"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// tileChunkRows is how many data rows each tile-kernel call covers on the
// formed-batch scan path: big enough to amortize the dispatch, small
// enough that the queries×rows distance tile stays cache-resident
// (mirrors the offline engine's batch.tileRows sizing).
const tileChunkRows = 256

// batchFormKey is the former's compatibility key for a plain (unfiltered)
// vector query against field f: queries may only share a batch when every
// plan-shaping knob matches. The venue needs no place in it: it is a
// function of the snapshot, and a formed batch pins its own.
func (c *Collection) batchFormKey(f int, opts *SearchOptions) batchform.Key {
	vf := &c.schema.VectorFields[f]
	return batchform.Key{
		Collection: c.Name,
		Field:      f,
		Dim:        vf.Dim,
		Metric:     vf.Metric.String(),
		K:          opts.K,
		Nprobe:     opts.Nprobe,
		Ef:         opts.Ef,
		SearchL:    opts.SearchL,
	}
}

// searchBatched runs a validated, unfiltered query through the batch
// former: alone over sn while a pool worker is free, else parked until one
// frees and its compatible group runs as one batch. A query the tile
// kernels cannot batch (non-decomposable metric), or any query with
// batching off, runs alone over sn.
func (c *Collection) searchBatched(ctx context.Context, sn *Snapshot, f int, query []float32, opts SearchOptions) ([]topk.Result, error) {
	solo := func() ([]topk.Result, error) { return c.searchSnapshot(ctx, sn, f, query, opts) }
	bf := c.former
	if bf == nil || !c.schema.VectorFields[f].Metric.BatchEligible() {
		return solo()
	}
	res, occ, err := bf.Submit(ctx, c.batchFormKey(f, &opts), query, opts.Trace, solo)
	if occ > 0 {
		opts.Trace.AnnotateInt("batch_occupancy", int64(occ))
	}
	return res, err
}

// runFormedBatch is the former's Runner: a formed batch spans several
// admitted queries, so it pins its own snapshot for the shared sweep.
func (c *Collection) runFormedBatch(ctx context.Context, key batchform.Key, items []*batchform.Item) {
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	c.runBatch(ctx, sn, key, items)
}

// searchBatch answers an explicit batch over the pinned snapshot through
// the same executor the former routes concurrent SearchCtx traffic to;
// result lists come back in input order.
func (c *Collection) searchBatch(ctx context.Context, sn *Snapshot, key batchform.Key, queries [][]float32) ([][]topk.Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	items := make([]*batchform.Item, len(queries))
	for i, q := range queries {
		items[i] = batchform.NewItem(ctx, q)
	}
	c.runBatch(ctx, sn, key, items)
	out := make([][]topk.Result, len(items))
	for i, it := range items {
		res, _, err := it.Outcome()
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// runBatch executes one compatible batch against one snapshot, sharing one
// segment sweep across all members.
// Indexed segments are searched once per live member; scan segments go
// through the m-query tile kernels, so each cached data block is reused
// across the whole batch — the paper's Fig. 11 cache-aware batching,
// applied to coalesced online traffic. A member whose context died gets
// its own ctx error; live members are never aborted by dead peers (ctx
// here is the joined batch context).
func (c *Collection) runBatch(ctx context.Context, sn *Snapshot, key batchform.Key, items []*batchform.Item) {
	m := len(items)
	vf := &c.schema.VectorFields[key.Field]
	metric := vf.Metric
	dim := vf.Dim
	qs := make([]float32, 0, m*dim)
	for _, it := range items {
		qs = append(qs, it.Query()...)
	}
	p := index.SearchParams{K: key.K, Nprobe: key.Nprobe, Ef: key.Ef, SearchL: key.SearchL}
	segs := sn.Segments
	if len(segs) == 0 {
		for _, it := range items {
			it.Deliver(nil, it.Context().Err())
		}
		return
	}
	workers := poolTasks(c.pool, len(segs))
	heaps := topk.NewMatrix(workers, m, key.K)
	var cursor atomic.Int64
	var nIdx atomic.Int64
	_ = c.pool.Map(ctx, workers, func(w int) {
		tile := bufferpool.GetFloats(m * tileChunkRows)
		for ctx.Err() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= len(segs) {
				break
			}
			if c.batchSegment(segs[i], sn.visible[i], key.Field, metric, qs, items, heaps, w, p, *tile) {
				nIdx.Add(1)
			}
		}
		bufferpool.PutFloats(tile)
	})
	c.met.segIndex.Add(nIdx.Load())
	c.met.segScan.Add(int64(len(segs)) - nIdx.Load())
	for qj, it := range items {
		if cerr := it.Context().Err(); cerr != nil {
			it.Deliver(nil, cerr)
			continue
		}
		it.Deliver(heaps.MergeQuery(qj, key.K), nil)
	}
}

// batchSegment searches one segment for every live batch member, pushing
// candidates into each member's (worker, query) heap. It reports whether
// the segment was served by its index. visible is the segment's visibility
// bitset in the batch's snapshot (nil hides nothing); tile is the worker's
// scratch distance tile (m × tileChunkRows).
func (c *Collection) batchSegment(seg *Segment, visible *bitset.Bitset, field int, metric vec.Metric, qs []float32, items []*batchform.Item, heaps *topk.Matrix, w int, p index.SearchParams, tile []float32) bool {
	dim := c.schema.VectorFields[field].Dim
	if idx := seg.Index(field); idx != nil {
		sp := p
		sp.Bits = visible
		for qj, it := range items {
			if !it.Live() {
				continue
			}
			h := heaps.At(w, qj)
			for _, r := range idx.Search(qs[qj*dim:(qj+1)*dim], sp) {
				h.Push(r.ID, r.Distance)
			}
		}
		return true
	}
	data, rel, err := seg.vectorData(field)
	if err != nil {
		// Promotion exhausted its retries; the segment contributes
		// nothing to this batch rather than torn results.
		return false
	}
	defer rel()
	m := len(items)
	n := seg.Rows()
	for i0 := 0; i0 < n; i0 += tileChunkRows {
		i1 := i0 + tileChunkRows
		if i1 > n {
			i1 = n
		}
		rows := i1 - i0
		chunk := data[i0*dim : i1*dim]
		t := tile[:m*rows]
		if metric == vec.IP {
			vec.NegDotTile(qs, chunk, dim, t)
		} else {
			vec.L2SquaredTile(qs, chunk, dim, t)
		}
		for qj, it := range items {
			if !it.Live() {
				continue
			}
			h := heaps.At(w, qj)
			for r, d := range t[qj*rows : (qj+1)*rows] {
				if visible != nil && !visible.Test(i0+r) {
					continue
				}
				h.Push(seg.IDs[i0+r], d)
			}
		}
	}
	return false
}

// SearchBatchCtx answers len(queries) top-k queries in one batch over a
// single snapshot — the deterministic entry to the same executor the former
// routes concurrent SearchCtx traffic through. All queries share opts
// (field, K, index knobs); per-query result lists come back in input order. The
// batch is planned as one nq-query shape and holds one admission slot, like
// any other top-level query.
func (c *Collection) SearchBatchCtx(ctx context.Context, queries [][]float32, opts SearchOptions) ([][]topk.Result, error) {
	res, err := c.execute(ctx, &Query{kind: kindBatch, vecs: queries, opts: opts})
	return res.batch, err
}
