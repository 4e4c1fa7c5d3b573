package ivf

import (
	"context"
	"sync/atomic"

	"vectordb/internal/bufferpool"
	"vectordb/internal/exec"
	"vectordb/internal/index"
	"vectordb/internal/quantizer"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// SearchBatch is the cache-aware multi-query path of Sec. 3.2.1 applied to
// the inverted file: instead of each query streaming its probed buckets
// independently, the batch is inverted into a bucket → queries plan, every
// bucket is scanned once for all the queries that probe it, and — exactly
// as the paper prescribes to avoid synchronization — results accumulate in
// one heap per (worker, query) pair, merged at the end. A bucket's vectors
// therefore pass through the CPU caches once per batch rather than once per
// query, with no locks on the hot path.
func (x *IVF) SearchBatch(queries []float32, p index.SearchParams) [][]topk.Result {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	out, _ := x.SearchBatchCtx(context.Background(), queries, p)
	return out
}

// SearchBatchCtx is SearchBatch with cancellation: a cancelled batch stops
// claiming buckets and returns ctx's error. Bucket scans run as tasks on
// the shared execution pool rather than per-batch goroutines.
func (x *IVF) SearchBatchCtx(ctx context.Context, queries []float32, p index.SearchParams) ([][]topk.Result, error) {
	nq := len(queries) / x.dim
	if nq == 0 {
		return nil, ctx.Err()
	}
	if x.ext != nil {
		// The shared-bucket tile path wants resident bucket payloads; an
		// externalized index answers per query through the out-of-core
		// scans (each of which opens the payload source once).
		out := make([][]topk.Result, nq)
		for qi := range out {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			out[qi] = x.Search(queries[qi*x.dim:(qi+1)*x.dim], p)
		}
		return out, nil
	}
	// Step 1: probe order per query (itself a multi-query problem over the
	// centroid table).
	probes := make([][]int, nq)
	for qi := 0; qi < nq; qi++ {
		probes[qi] = x.ProbeOrder(queries[qi*x.dim:(qi+1)*x.dim], p.Nprobe)
	}

	// Invert to bucket → queries.
	byBucket := make(map[int][]int32, x.nlist)
	for qi, pr := range probes {
		for _, b := range pr {
			byBucket[b] = append(byBucket[b], int32(qi))
		}
	}
	buckets := make([]int, 0, len(byBucket))
	for b := range byBucket {
		buckets = append(buckets, b)
	}

	pool := exec.Default()
	workers := pool.Workers()
	if workers > len(buckets) {
		workers = len(buckets)
	}
	if workers < 1 {
		workers = 1
	}

	// One heap per (worker, query): lock-free accumulation (Fig. 3's
	// H_{r,j} matrix), lazily drawn from the heap pool since a worker
	// usually touches only a slice of the batch. Every heap drawn goes
	// back on every exit path — a cancelled batch has already populated
	// part of the matrix by the time Map returns the ctx error.
	perWorker := make([][]*topk.Heap, workers)
	defer func() {
		for _, heaps := range perWorker {
			for _, h := range heaps {
				if h != nil {
					topk.PutHeap(h)
				}
			}
		}
	}()
	// ADC amortization: one fused table per query (SQ8) or one lookup table
	// per query (PQ), built once up front and shared by every bucket scan.
	var tabs []*quantizer.ADCTable
	var sqqs []*quantizer.SQ8Query
	switch x.fine {
	case FinePQ:
		tabs = make([]*quantizer.ADCTable, nq)
		for qi := 0; qi < nq; qi++ {
			tabs[qi] = x.pqTable(queries[qi*x.dim : (qi+1)*x.dim])
		}
	case FineSQ8:
		sqqs = make([]*quantizer.SQ8Query, nq)
		for qi := 0; qi < nq; qi++ {
			sqqs[qi] = x.SQ8ScanQuery(queries[qi*x.dim : (qi+1)*x.dim])
		}
	}

	// Buckets are claimed dynamically off an atomic cursor by the pool
	// tasks, preserving the channel fanout's load balancing without
	// per-batch goroutines.
	var cursor atomic.Int64
	err := pool.Map(ctx, workers, func(w int) {
		heaps := make([]*topk.Heap, nq)
		perWorker[w] = heaps
		heapFor := func(qi int32) *topk.Heap {
			h := heaps[qi]
			if h == nil {
				h = topk.GetHeap(p.K)
				heaps[qi] = h
			}
			return h
		}
		for ctx.Err() == nil {
			bi := int(cursor.Add(1)) - 1
			if bi >= len(buckets) {
				return
			}
			b := buckets[bi]
			x.scanBucketForQueries(queries, b, byBucket[b], p, heapFor, tabs, sqqs)
		}
	})
	if err != nil {
		return nil, err
	}

	// Merge the per-worker heaps of each query (the deferred recycle
	// returns them to the pool once the snapshots are merged).
	out := make([][]topk.Result, nq)
	lists := make([][]topk.Result, 0, workers)
	for qi := 0; qi < nq; qi++ {
		lists = lists[:0]
		for w := 0; w < workers; w++ {
			if h := perWorker[w][qi]; h != nil {
				lists = append(lists, h.Snapshot())
			}
		}
		out[qi] = topk.Merge(p.K, lists...)
	}
	return out, nil
}

// tileChunkRows sizes the data chunk of a query-tiled bucket scan so the
// nq×rows distance tile stays cache-resident regardless of batch width.
func tileChunkRows(nq int) int {
	r := 16384 / nq
	if r < 16 {
		r = 16
	}
	if r > 256 {
		r = 256
	}
	return r
}

// scanBucketForQueries streams one bucket once, comparing every vector
// against every query that probes the bucket. Unfiltered FLAT buckets go
// through the query-tile kernels (the q×v register tile of Sec. 3.2.1);
// SQ8 buckets use the per-query fused tables over contiguous code blocks.
func (x *IVF) scanBucketForQueries(queries []float32, bucket int, qis []int32, p index.SearchParams, heapFor func(int32) *topk.Heap, tabs []*quantizer.ADCTable, sqqs []*quantizer.SQ8Query) {
	ids := x.ids[bucket]
	if len(ids) == 0 {
		return
	}
	// skip applies the pushed bitset over build positions; the
	// shared-bucket tile/batch fast paths are reserved for unfiltered groups.
	pos := x.pos[bucket]
	filtered := p.Bits != nil
	skip := func(i int) bool { return filtered && !p.Bits.Test(int(pos[i])) }
	switch x.fine {
	case FineFlat:
		if !filtered && x.metric.BatchEligible() {
			x.tileBucketFlat(queries, bucket, qis, heapFor)
			return
		}
		dist := x.metric.Dist()
		vecsB := x.vecs[bucket]
		for i, id := range ids {
			if skip(i) {
				continue
			}
			row := vecsB[i*x.dim : (i+1)*x.dim]
			for _, qi := range qis {
				heapFor(qi).Push(id, dist(queries[int(qi)*x.dim:(int(qi)+1)*x.dim], row))
			}
		}
	case FineSQ8:
		codes := x.codes[bucket]
		cs := x.sq8.CodeSize()
		if filtered {
			for i, id := range ids {
				if skip(i) {
					continue
				}
				code := codes[i*cs : (i+1)*cs]
				for _, qi := range qis {
					heapFor(qi).Push(id, sqqs[qi].Distance(code))
				}
			}
			return
		}
		// The bucket's codes pass through the cache once for the whole
		// query group; each query then reads them back hot through its
		// fused table, a block at a time into a pooled buffer.
		bp := bufferpool.GetFloats(index.ScanBlockRows)
		buf := *bp
		for _, qi := range qis {
			h := heapFor(qi)
			sq := sqqs[qi]
			for i0 := 0; i0 < len(ids); i0 += index.ScanBlockRows {
				i1 := i0 + index.ScanBlockRows
				if i1 > len(ids) {
					i1 = len(ids)
				}
				sq.DistanceBatch(codes[i0*cs:i1*cs], buf)
				for r := 0; r < i1-i0; r++ {
					h.Push(ids[i0+r], buf[r])
				}
			}
		}
		bufferpool.PutFloats(bp)
	case FinePQ:
		codes := x.codes[bucket]
		cs := x.pq.CodeSize()
		for i, id := range ids {
			if skip(i) {
				continue
			}
			code := codes[i*cs : (i+1)*cs]
			for _, qi := range qis {
				heapFor(qi).Push(id, tabs[qi].Distance(code))
			}
		}
	}
}

// tileBucketFlat scans one FLAT bucket for a group of queries through the
// query-tile kernels: the group's queries are gathered into a contiguous
// tile (pooled), the bucket is consumed in row chunks, and each chunk's
// nq×rows distance tile is computed in one kernel call before the heap
// pushes.
func (x *IVF) tileBucketFlat(queries []float32, bucket int, qis []int32, heapFor func(int32) *topk.Heap) {
	ids := x.ids[bucket]
	vecsB := x.vecs[bucket]
	dim := x.dim
	nq := len(qis)
	qp := bufferpool.GetFloats(nq * dim)
	qtile := *qp
	for t, qi := range qis {
		copy(qtile[t*dim:(t+1)*dim], queries[int(qi)*dim:(int(qi)+1)*dim])
	}
	rows := tileChunkRows(nq)
	op := bufferpool.GetFloats(nq * rows)
	out := *op
	ip := x.metric == vec.IP
	n := len(ids)
	for i0 := 0; i0 < n; i0 += rows {
		i1 := i0 + rows
		if i1 > n {
			i1 = n
		}
		c := i1 - i0
		chunk := vecsB[i0*dim : i1*dim]
		tile := out[:nq*c]
		if ip {
			vec.NegDotTile(qtile, chunk, dim, tile)
		} else {
			vec.L2SquaredTile(qtile, chunk, dim, tile)
		}
		for t, qi := range qis {
			h := heapFor(qi)
			for r, d := range tile[t*c : (t+1)*c] {
				h.Push(ids[i0+r], d)
			}
		}
	}
	bufferpool.PutFloats(op)
	bufferpool.PutFloats(qp)
}
