package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/bufferpool"
	"vectordb/internal/index"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// tileChunkRows is how many data rows each tile-kernel call covers on the
// batch scan path: big enough to amortize the dispatch, small enough that
// the queries×rows distance tile stays cache-resident.
const tileChunkRows = 256

// codedBatchFloats is the scanned float column per member from which an
// L2 scan runs the coded scan (index.ScanCoded) in place of the float
// kernels: 2^19 floats, 2 MiB. A batch sums its scanned segments; a single
// query is a batch of one and counts each segment alone: its scan of a
// smaller segment reads no codes and counts toward no code build. The
// float tile streams each chunk once for every member, so a member's share
// of the float traffic shrinks as the batch grows, while the code pass and
// each member's survivor gather do not. Measured on a 2-core AVX-512 host,
// dim 128, 4,096-row segments: one member gains from between 2,000 and
// 3,000 rows, four from between 10,000 and 65,536, sixteen at 65,536 but
// not at 10,000; a 256-query Fig. 11 batch loses at every size up to
// 100,000 rows (1.0–2.1× slower) and stays on the float tile.
const codedBatchFloats = 1 << 19

// batchKey is a plain vector query's compatibility class in the exec
// pool's queue: a freed run slot takes along only queued queries with an
// equal key, because a formed batch executes as one plan — same
// collection, vector field, K and index knobs. The collection is its
// pointer, so same-named collections of two databases sharing a pool never
// mix; dim and metric follow from it and the field. The venue needs no
// place either: it is a function of the snapshot, and a formed batch runs
// on its holder's.
type batchKey struct {
	c                             *Collection
	field, k, nprobe, ef, searchL int
}

func (c *Collection) batchFormKey(f int, opts *SearchOptions) batchKey {
	return batchKey{c: c, field: f, k: opts.K, nprobe: opts.Nprobe, ef: opts.Ef, searchL: opts.SearchL}
}

// batchItem is one member of a batch: a query of an explicit batch, or a
// queued query that may ride another query's run slot as a peer. A peer
// waits until the holder delivers — or until its own context dies, in
// which case it abandons the item (the holder never blocks on an abandoned
// item, and co-batched peers are unaffected).
type batchItem struct {
	ctx   context.Context
	query []float32
	enq   time.Time
	// Set by the holder before it runs the batch: the batch's size and
	// plan, which a peer stamps on its own trace.
	occ int
	dec plan.Decision

	once sync.Once
	hits []topk.Result // the outcome, readable once done is closed
	err  error
	done chan struct{}
}

func newBatchItem(ctx context.Context, query []float32) *batchItem {
	return &batchItem{ctx: ctx, query: query, enq: time.Now(), done: make(chan struct{})}
}

// live reports whether the member still waits: a cancelled query is
// skipped, never aborting its peers.
func (it *batchItem) live() bool { return it.ctx.Err() == nil }

// deliver hands the member its outcome. Only the first call counts, so the
// backstop after a run answers exactly the members the run missed, with an
// error rather than a hung query.
func (it *batchItem) deliver(hits []topk.Result, err error) {
	it.once.Do(func() {
		it.hits, it.err = hits, err
		close(it.done)
	})
}

var errMissedMember = errors.New("core: batch delivered no result for a member")

// formable returns the item and key under which a plain vector query
// queues for a run slot, so that a freed slot can take it along with its
// compatible peers; nils for every other request shape, with batching off
// (exec MaxBatch 1), or for a metric the tile kernels cannot batch.
func (c *Collection) formable(ctx context.Context, f int, q *Request) (*batchItem, any) {
	if c.form == nil || q.Vector == nil || q.Pred != nil || !c.schema.VectorFields[f].Metric.BatchEligible() {
		return nil, nil
	}
	return newBatchItem(ctx, q.Vector), c.batchFormKey(f, &q.SearchOptions)
}

// batchItems lists the members of the batch q runs as, or nil when it runs
// alone: an explicit batch's queries, or a slot holder's own query followed
// by the peers its hand-off brought.
func batchItems(ctx context.Context, q *Request, it *batchItem, peers []any) []*batchItem {
	if q.Batch != nil {
		items := make([]*batchItem, len(q.Batch))
		for i, v := range q.Batch {
			items[i] = newBatchItem(ctx, v)
		}
		return items
	}
	if len(peers) == 0 {
		return nil
	}
	items := []*batchItem{it}
	for _, p := range peers {
		items = append(items, p.(*batchItem))
	}
	return items
}

// awaitBatch is a peer's side of a formed batch: it holds no slot and
// waits for the holder that took it along to answer, or for its own
// context; only that wait is recorded, as the batch_form stage.
func awaitBatch(ctx context.Context, it *batchItem, tr *obs.QueryRecord) (Response, error) {
	sp := tr.Start(obs.BatchForm)
	defer sp.End()
	select {
	case <-it.done:
		annotatePlan(tr, it.dec)
		tr.SetInt(obs.BatchOccupancy, int64(it.occ))
		return Response{Hits: it.hits}, it.err
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// searchBatch runs items as one batch over the pinned snapshot, under
// their joined context, and answers every member: one the run missed —
// even by panicking — gets errMissedMember rather than a hung wait. One
// sweep serves every member; its per-segment body is batchSegment. A
// member whose context died gets its own ctx error; live members are never
// aborted by dead peers.
func (c *Collection) searchBatch(sn *Snapshot, tr *obs.QueryRecord, key batchKey, dec plan.Decision, items []*batchItem) {
	defer func() {
		for _, it := range items {
			it.deliver(nil, errMissedMember)
		}
	}()
	if len(items) == 0 {
		return
	}
	m := len(items)
	vf := &c.schema.VectorFields[key.field]
	qs := make([]float32, 0, m*vf.Dim)
	for _, it := range items {
		it.occ, it.dec = m, dec
		qs = append(qs, it.query...)
	}
	coded := false
	if vf.Metric == vec.L2 {
		scanned := 0
		for _, seg := range sn.Segments {
			if seg.Index(key.field) == nil {
				scanned += seg.Rows()
			}
		}
		coded = scanned*vf.Dim >= m*codedBatchFloats
	}
	p := index.SearchParams{K: key.k, Nprobe: key.nprobe, Ef: key.ef, SearchL: key.searchL}
	ctx, stop := joinedContext(items)
	defer stop()
	out := make([][]topk.Result, m)
	err := c.sweep(ctx, sn, tr, key.field, p, out, func(seg *Segment, p index.SearchParams, hs []*topk.Heap) error {
		return c.batchSegment(seg, p, hs, key.field, coded, qs, items)
	})
	for j, it := range items {
		if cerr := it.ctx.Err(); cerr != nil {
			it.deliver(nil, cerr)
		} else {
			it.deliver(out[j], err)
		}
	}
}

// batchResult reads q's answer off its answered batch: every member's hits
// for an explicit batch, which fails as a whole, else the holder's own.
func batchResult(q *Request, items []*batchItem) (Response, error) {
	if q.Batch == nil {
		return Response{Hits: items[0].hits}, items[0].err
	}
	out := make([][]topk.Result, len(items))
	for i, it := range items {
		if it.err != nil {
			return Response{}, it.err
		}
		out[i] = it.hits
	}
	return Response{Batch: out}, nil
}

// joinedContext derives a batch's execution context: detached from every
// member's cancellation, and cancelled only once EVERY member's context is
// done. One cancelled query therefore never aborts co-batched peers, while
// a fully-abandoned batch stops promptly.
func joinedContext(items []*batchItem) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.WithoutCancel(items[0].ctx))
	var left atomic.Int64
	left.Store(int64(len(items)))
	down := func() {
		if left.Add(-1) == 0 {
			cancel()
		}
	}
	stops := make([]func() bool, 0, len(items))
	for _, it := range items {
		// Members already dead at formation are counted synchronously
		// (AfterFunc would fire on its own goroutine, leaving a batch of
		// all-cancelled members briefly uncancelled and racy to test); a
		// member that dies between the check and the registration simply
		// takes the AfterFunc path, so nothing is counted twice.
		if it.ctx.Err() != nil {
			down()
			continue
		}
		stops = append(stops, context.AfterFunc(it.ctx, down))
	}
	return ctx, func() {
		for _, s := range stops {
			s()
		}
		cancel()
	}
}

// batchSegment searches one segment for every live batch member, pushing
// candidates into each member's heap of hs, and fails when the segment's
// bytes or its index's payload cannot be read. Indexed segments are
// searched once per live member; scans go through the m-query tile
// kernels, so each cached data block is reused across the whole batch —
// the paper's Fig. 11 cache-aware batching, applied to coalesced online
// traffic. p.Bits is the segment's visibility bitset in the batch's
// snapshot (nil hides nothing).
//
// When coded (an L2 batch with at least codedBatchFloats scanned floats
// per member), a field with a code copy runs index.ScanCoded for the whole
// batch, the path a single query takes too: the code tile widens each
// code chunk once for up to four members, and each member scores in float
// only the rows its bound keeps. Other scans run the float tile kernels
// over every row, each chunk staying cache-resident across the members.
func (c *Collection) batchSegment(seg *Segment, p index.SearchParams, hs []*topk.Heap, field int, coded bool, qs []float32, items []*batchItem) error {
	vf := &c.schema.VectorFields[field]
	dim := vf.Dim
	visible := p.Bits
	if idx := seg.Index(field); idx != nil {
		for qj, it := range items {
			if !it.live() {
				continue
			}
			if err := index.SearchInto(idx, hs[qj], qs[qj*dim:(qj+1)*dim], p); err != nil {
				return fmt.Errorf("core: segment %d: %w", seg.ID, err)
			}
		}
		return nil
	}
	data, rel, err := seg.vectorData(field)
	if err != nil {
		return fmt.Errorf("core: segment %d: %w", seg.ID, err)
	}
	defer rel()
	var codes *vec.Codes
	if coded {
		codes = seg.scanCodes(vf, field, data)
	}
	if codes != nil {
		live := make([]*topk.Heap, len(items))
		for qj, it := range items {
			if it.live() {
				live[qj] = hs[qj]
			}
		}
		index.ScanCoded(live, qs, data, codes, seg.IDs, index.Selection{Bits: visible})
		return nil
	}
	m := len(items)
	tile := bufferpool.GetFloats(m * tileChunkRows)
	defer bufferpool.PutFloats(tile)
	n := seg.Rows()
	for i0 := 0; i0 < n; i0 += tileChunkRows {
		i1 := min(i0+tileChunkRows, n)
		rows := i1 - i0
		chunk := data[i0*dim : i1*dim]
		t := (*tile)[:m*rows]
		if vf.Metric == vec.IP {
			vec.NegDotTile(qs, chunk, dim, t)
		} else {
			vec.L2SquaredTile(qs, chunk, dim, t)
		}
		for qj, it := range items {
			if !it.live() {
				continue
			}
			ds := t[qj*rows : (qj+1)*rows]
			if visible != nil {
				for r := range ds {
					if !visible.Test(i0 + r) {
						ds[r] = float32(math.NaN()) // no heap keeps a NaN
					}
				}
			}
			hs[qj].Offer(ds, seg.IDs, i0)
		}
	}
	return nil
}

// formMetrics is a collection's vectordb_batchform_* handles, resolved
// once when batching is on (the same once-resolved pattern as colMetrics).
type formMetrics struct {
	reg  *obs.Registry
	name string

	batched     *obs.Counter   // queries that ran as members of a formed batch
	passthrough *obs.Counter   // batchable queries that ran alone
	slot        *obs.Counter   // formed batches; a freed slot is the only trigger
	wait        *obs.Histogram // time from queueing until the member's batch formed
	pending     atomic.Int64   // batchable queries waiting for a run slot
}

func newFormMetrics(reg *obs.Registry, name string) *formMetrics {
	reg.Help("vectordb_batchform_queries_total", "Batchable queries, by path (batched: ran in a formed batch; passthrough: ran alone).")
	reg.Help("vectordb_batchform_batches_total", "Formed batches, by trigger (slot: a freed run slot took compatible queued peers along).")
	reg.Help("vectordb_batchform_occupancy_total", "Formed batches, by member count.")
	reg.Help("vectordb_batchform_wait_seconds", "Time a batch member spent queued before its batch ran.")
	reg.Help("vectordb_batchform_pending", "Batchable queries waiting for a run slot.")
	m := &formMetrics{
		reg:         reg,
		name:        name,
		batched:     reg.Counter("vectordb_batchform_queries_total", "collection", name, "path", "batched"),
		passthrough: reg.Counter("vectordb_batchform_queries_total", "collection", name, "path", "passthrough"),
		slot:        reg.Counter("vectordb_batchform_batches_total", "collection", name, "trigger", "slot"),
		wait:        reg.Histogram("vectordb_batchform_wait_seconds", nil, "collection", name),
	}
	reg.GaugeFunc("vectordb_batchform_pending", m.pending.Load, "collection", name)
	return m
}

// granted counts a batchable query granted a run slot: alone, or leading
// the peers its hand-off brought as one formed batch, whose members' queue
// waits end here.
func (m *formMetrics) granted(it *batchItem, peers []any) {
	if len(peers) == 0 {
		m.passthrough.Inc()
		return
	}
	now := time.Now()
	m.wait.Observe(now.Sub(it.enq))
	for _, p := range peers {
		m.wait.Observe(now.Sub(p.(*batchItem).enq))
	}
	n := 1 + len(peers)
	m.batched.Add(int64(n))
	m.slot.Inc()
	m.reg.Counter("vectordb_batchform_occupancy_total", "collection", m.name, "size", strconv.Itoa(n)).Inc()
}
