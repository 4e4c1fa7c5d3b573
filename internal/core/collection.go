package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/batchform"
	"vectordb/internal/bitset"
	"vectordb/internal/blockcache"
	"vectordb/internal/colstore"
	"vectordb/internal/exec"
	"vectordb/internal/index"
	_ "vectordb/internal/index/all" // make every built-in index type available
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/wal"
)

// Config tunes a collection's LSM and indexing behaviour. Zero values mean
// defaults.
type Config struct {
	// FlushRows seals the MemTable when it accumulates this many rows
	// (Sec. 2.3's size threshold; default 4096).
	FlushRows int
	// FlushInterval seals a non-empty MemTable at this period ("or once
	// every second"); default 1s, negative disables the timer.
	FlushInterval time.Duration
	// MergeFactor is how many same-tier segments trigger a tiered merge
	// (default 4).
	MergeFactor int
	// MaxSegmentRows caps merged segment size — the paper's configurable
	// 1 GB limit, expressed in rows (default 1<<18).
	MaxSegmentRows int
	// IndexRows is the segment size at which indexes are built automatically
	// ("by default, Milvus builds indexes only for large segments");
	// default 8192. Users can still index any segment via BuildIndex.
	IndexRows int
	// IndexType and IndexParams configure auto-built indexes
	// (default IVF_FLAT).
	IndexType   string
	IndexParams map[string]string
	// SyncIndex builds indexes synchronously during flush/merge instead of
	// in the background thread (deterministic tests; default async,
	// Sec. 5.1 "Milvus builds indexes asynchronously").
	SyncIndex bool
	// Obs receives the collection's metrics (vectordb_* series labeled
	// collection="<name>"). Nil disables scraping but instrumentation
	// stays live on unregistered handles.
	Obs *obs.Registry
	// QueryLog captures per-query traces (and slow queries) for queries
	// that did not supply their own SearchOptions.Trace. Nil disables
	// automatic trace capture.
	QueryLog *obs.QueryLog
	// Exec is the shared execution pool that runs this collection's
	// segment-level search tasks and admits its queries (Sec. 3.2:
	// schedule against fixed threads instead of spawning per query).
	// Nil means the process-wide exec.Default() pool.
	Exec *exec.Pool
	// BatchSize caps a formed batch (the paper's Fig. 11 batching applied
	// to live traffic): when every pool worker is busy, concurrent
	// compatible queries park and share one cache-aware tile sweep of up
	// to this many (default 16). 1 turns dynamic batching off — a batch of
	// one is the per-query path.
	BatchSize int
	// TierDir enables out-of-core sealed segments when non-empty: each
	// sealed segment's stored image is also written as one mmap-backed
	// extent file under this directory, vector payloads are dropped from
	// the Go heap, and scans fault 256-row blocks through the block cache.
	// A demoted segment's cold copy is its object in the collection's
	// store. Empty keeps the all-RAM behaviour.
	TierDir string
	// TierCache is the block cache serving tiered scans; nil with TierDir
	// set creates a collection-private cache of TierCacheBytes capacity
	// (0 = unbounded) and registers its vectordb_blockcache_* series.
	TierCache      *blockcache.Cache
	TierCacheBytes int64
	// TierMappedBytes bounds the summed size of mmap'd extent files; when
	// exceeded, the least-recently-used unpinned mapped segments demote to
	// cold. 0 keeps every tiered segment mapped.
	TierMappedBytes int64
	// Planner is the cost-based query planner pricing per-query execution
	// venue and deciding filter strategy. Nil creates a collection-private
	// planner (lazy process-wide calibration); DB-created collections share
	// the database's planner so the calibration profile and the
	// vectordb_plan_* series are process-wide.
	Planner *plan.Planner
}

func (c *Config) defaults() {
	if c.FlushRows <= 0 {
		c.FlushRows = 4096
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = time.Second
	}
	if c.MergeFactor <= 0 {
		c.MergeFactor = 4
	}
	if c.MaxSegmentRows <= 0 {
		c.MaxSegmentRows = 1 << 18
	}
	if c.IndexRows <= 0 {
		c.IndexRows = 8192
	}
	if c.IndexType == "" {
		c.IndexType = "IVF_FLAT"
	}
	if c.Exec == nil {
		c.Exec = exec.Default()
	}
	if c.Planner == nil {
		c.Planner = plan.New(plan.Config{Obs: c.Obs})
	}
}

// tombstone is a sequence-scoped delete: it hides id in every segment whose
// ID is ≤ seq (segments that existed when the delete arrived).
type tombstone struct {
	id  int64
	seq int64
}

// memTable buffers writes before they become an immutable segment.
type memTable struct {
	entities []Entity
	deletes  []tombstone
}

func (m *memTable) empty() bool { return len(m.entities) == 0 && len(m.deletes) == 0 }

// Collection is a named set of entities under one schema, managed LSM-style.
type Collection struct {
	Name   string
	schema *Schema
	cfg    Config
	store  objstore.Store
	log    *wal.Log
	snaps  *snapTracker
	met    *colMetrics
	qlog   *obs.QueryLog
	pool   *exec.Pool
	former *batchform.Former // nil when dynamic batching is disabled

	// planner prices per-query venue and decides filter strategy.
	planner *plan.Planner

	tier *collTier // nil when tiering is off

	mu       sync.Mutex // guards mem, nextSeg/nextSnap, flushErr, snapshot installs
	mem      *memTable
	nextSeg  int64
	nextSnap int64
	// flushErr is the last background flush failure (e.g. the object store
	// refused a segment write). The affected rows stay buffered in the
	// MemTable and are retried by the next flush; Flush surfaces the error
	// so acknowledged writes are never silently dropped.
	flushErr error

	indexWG    sync.WaitGroup
	indexCh    chan *Segment
	pendingIdx atomic.Int64
	// deferredBuilds holds segments whose index build must run on the
	// current goroutine (SyncIndex, or async queue full) but outside the
	// critical section; guarded by mu, drained via takeDeferredLocked.
	deferredBuilds []*Segment
	stopTimer      chan struct{}
	closeOnce      sync.Once
}

// NewCollection creates a collection persisting segments to store.
func NewCollection(name string, schema Schema, store objstore.Store, cfg Config) (*Collection, error) {
	if name == "" {
		return nil, fmt.Errorf("core: collection name required")
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		store = objstore.NewMemory()
	}
	cfg.defaults()
	c := &Collection{
		Name:      name,
		schema:    &schema,
		cfg:       cfg,
		store:     store,
		mem:       &memTable{},
		met:       newColMetrics(cfg.Obs, name),
		qlog:      cfg.QueryLog,
		pool:      cfg.Exec,
		planner:   cfg.Planner,
		indexCh:   make(chan *Segment, 64),
		stopTimer: make(chan struct{}),
	}
	if cfg.TierDir != "" {
		cache := cfg.TierCache
		if cache == nil {
			cache = blockcache.New(cfg.TierCacheBytes, 0)
			// A private cache's series carry the collection label; a shared
			// cache is registered once by whoever created it.
			cfg.Obs.RegisterCacheMetrics("vectordb_blockcache", func() obs.CacheStats {
				st := cache.Stats()
				return obs.CacheStats{
					Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
					Bytes: st.Bytes, Entries: st.Entries, Detail: true,
				}
			}, "collection", name)
		}
		c.tier = &collTier{
			dir:    filepath.Join(cfg.TierDir, name),
			cache:  cache,
			store:  store,
			budget: cfg.TierMappedBytes,
			met:    c.met,
			segs:   map[uint64]*segTier{},
		}
	}
	c.snaps = newSnapTracker(func(seg *Segment) {
		// Background GC of obsolete segments (Sec. 5.2): drop the segment
		// object, any persisted per-field indexes, and the tiered extent
		// storage (local files, cached blocks, index-payload objects).
		key := c.segmentKey(seg.ID)
		_ = c.store.Delete(key)
		for f := range schema.VectorFields {
			_ = c.store.Delete(IndexKey(key, f))
		}
		if seg.tier != nil {
			seg.tier.destroy()
		}
		for _, t := range seg.idxTiers() {
			t.destroy()
		}
		c.met.segGC.Inc()
	})
	c.snaps.install(newSnapshot(c.allocSnapID(), nil, nil, nil))
	c.log = wal.NewLog(c.applyRecord)
	c.log.Observe(
		cfg.Obs.Counter("vectordb_wal_appends_total", "collection", name),
		cfg.Obs.Counter("vectordb_wal_applied_total", "collection", name),
	)
	cfg.Obs.GaugeFunc("vectordb_segments", func() int64 {
		sn := c.snaps.acquire()
		defer c.snaps.release(sn)
		return int64(len(sn.Segments))
	}, "collection", name)
	cfg.Obs.GaugeFunc("vectordb_live_rows", func() int64 {
		sn := c.snaps.acquire()
		defer c.snaps.release(sn)
		return int64(sn.LiveRows())
	}, "collection", name)
	if cfg.BatchSize != 1 {
		c.former = batchform.New(batchform.Config{
			Collection: name,
			Slots:      c.pool.Workers(),
			MaxBatch:   cfg.BatchSize,
			Obs:        cfg.Obs,
			Run:        c.runFormedBatch,
		})
	}
	go c.flushTimer()
	c.indexWG.Add(1)
	go c.indexBuilder()
	return c, nil
}

// Schema returns the collection schema.
func (c *Collection) Schema() *Schema { return c.schema }

func (c *Collection) segmentKey(id int64) string {
	return fmt.Sprintf("col/%s/seg/%d", c.Name, id)
}

func (c *Collection) allocSnapID() int64 {
	c.nextSnap++
	return c.nextSnap
}

// Insert appends entities asynchronously: the operations are materialized
// to the log and acknowledged; a background thread applies them (Sec. 5.1).
// Call Flush to make them visible to queries.
func (c *Collection) Insert(entities []Entity) error {
	for i := range entities {
		if err := c.schema.validateEntity(&entities[i]); err != nil {
			return err
		}
	}
	for i := range entities {
		e := &entities[i]
		if err := c.log.Append(&wal.Record{Type: wal.RecordInsert, ID: e.ID, Vectors: e.Vectors, Attrs: e.Attrs, Cats: e.Cats}); err != nil {
			return err
		}
		c.met.insertRows.Inc() // acknowledged: the record is durable in the log
	}
	return nil
}

// Delete tombstones entities by ID, asynchronously (out-of-place deletion,
// Sec. 2.3; the vectors are physically removed at the next merge).
func (c *Collection) Delete(ids []int64) error {
	for _, id := range ids {
		if err := c.log.Append(&wal.Record{Type: wal.RecordDelete, ID: id}); err != nil {
			return err
		}
		c.met.deleteRows.Inc()
	}
	return nil
}

// applyRecord is the WAL consumer: it fills the MemTable and seals it when
// the size threshold is reached.
func (c *Collection) applyRecord(r *wal.Record) {
	c.mu.Lock()
	defer func() {
		builds := c.takeDeferredLocked()
		c.mu.Unlock()
		c.buildDeferred(builds)
	}()
	switch r.Type {
	case wal.RecordInsert:
		c.mem.entities = append(c.mem.entities, Entity{ID: r.ID, Vectors: r.Vectors, Attrs: r.Attrs, Cats: r.Cats})
		if len(c.mem.entities) >= c.cfg.FlushRows {
			c.flushLocked()
		}
	case wal.RecordDelete:
		// Rows still in the MemTable are removed directly (they were
		// inserted before this delete); flushed copies get a tombstone
		// scoped to the segments existing now, so a later re-insert of the
		// same ID stays visible.
		kept := c.mem.entities[:0]
		for i := range c.mem.entities {
			if c.mem.entities[i].ID != r.ID {
				kept = append(kept, c.mem.entities[i])
			}
		}
		c.mem.entities = kept
		c.mem.deletes = append(c.mem.deletes, tombstone{id: r.ID, seq: c.nextSeg})
	}
}

func (c *Collection) flushTimer() {
	if c.cfg.FlushInterval < 0 {
		return
	}
	t := time.NewTicker(c.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stopTimer:
			return
		case <-t.C:
			c.mu.Lock()
			if !c.mem.empty() {
				c.flushLocked()
			}
			builds := c.takeDeferredLocked()
			c.mu.Unlock()
			c.buildDeferred(builds)
		}
	}
}

// Flush blocks until all pending writes are applied and visible: it drains
// the log, seals the MemTable, and installs the new snapshot (Sec. 5.1).
// It also reports any earlier background flush failure; the affected rows
// are still buffered, so a successful retry clears the error.
func (c *Collection) Flush() error {
	c.log.Flush()
	c.mu.Lock()
	err := c.flushErr
	if !c.mem.empty() {
		err = c.flushLocked()
	}
	builds := c.takeDeferredLocked()
	c.mu.Unlock()
	c.buildDeferred(builds)
	return err
}

// flushLocked seals the MemTable into a new immutable segment, merges the
// tombstones into the view, installs the next snapshot, and triggers tiered
// merging. On a segment-build failure the sealed rows are restored to the
// MemTable (nothing acknowledged is ever dropped) and the error is kept for
// Flush to report. Caller holds c.mu.
func (c *Collection) flushLocked() error {
	c.met.flushes.Inc()
	mem := c.mem
	c.mem = &memTable{}

	prev := c.snaps.acquire()
	defer c.snaps.release(prev)

	segments := append([]*Segment(nil), prev.Segments...)
	var newSeg *Segment
	if len(mem.entities) > 0 {
		seg, err := c.buildSegment(mem.entities)
		if err != nil {
			// Put the sealed rows back in front of anything applied since
			// (nothing can be: we hold c.mu) and retry at the next flush.
			mem.entities = append(mem.entities, c.mem.entities...)
			mem.deletes = append(mem.deletes, c.mem.deletes...)
			c.mem = mem
			c.flushErr = err
			c.met.flushErrs.Inc()
			return err
		}
		segments = append(segments, seg)
		newSeg = seg
	}

	c.snaps.install(newSnapshot(c.allocSnapID(), segments, prev.Deleted, mem.deletes))
	// Schedule only after install: the index builder drops segments that are
	// no longer live, and the new segment becomes live with the snapshot.
	if newSeg != nil {
		if s := c.scheduleIndex(newSeg); s != nil {
			c.deferredBuilds = append(c.deferredBuilds, s)
		}
	}
	c.flushErr = nil
	return c.mergeLocked()
}

// buildSegment materializes rows into an immutable segment and persists it.
func (c *Collection) buildSegment(rows []Entity) (*Segment, error) {
	c.nextSeg++
	seg := &Segment{ID: c.nextSeg}
	seg.IDs = make([]int64, len(rows))
	for i := range rows {
		seg.IDs[i] = rows[i].ID
	}
	for f, vf := range c.schema.VectorFields {
		data := make([]float32, 0, len(rows)*vf.Dim)
		for i := range rows {
			data = append(data, rows[i].Vectors[f]...)
		}
		seg.Vectors = append(seg.Vectors, colstore.NewVectorColumn(vf.Dim, data))
	}
	for a := range c.schema.AttrFields {
		raw := make([]int64, len(rows))
		for i := range rows {
			raw[i] = rows[i].Attrs[a]
		}
		seg.RawAttrs = append(seg.RawAttrs, raw)
	}
	for cf := range c.schema.CatFields {
		raw := make([]string, len(rows))
		for i := range rows {
			raw[i] = rows[i].Cats[cf]
		}
		seg.RawCats = append(seg.RawCats, raw)
	}
	seg.buildAttrColumns()
	if err := c.seal(seg); err != nil {
		// The flush path retries the whole seal on the next flush; nothing
		// acknowledged is lost.
		return nil, err
	}
	c.met.segBuilt.Inc()
	return seg, nil
}

// seal persists a freshly built segment; flush and merge share it. The
// segment's one serialised form, the SEGX image encodeSegment builds, is
// Put once under its segment key (a few attempts, so one injected store
// fault does not bounce the whole flush or merge), and with tiering on the
// same image becomes its mapped local extent file.
func (c *Collection) seal(seg *Segment) error {
	img, err := encodeSegment(seg)
	if err != nil {
		return fmt.Errorf("core: encode segment %d: %w", seg.ID, err)
	}
	key := c.segmentKey(seg.ID)
	for attempt := 0; attempt < 3; attempt++ {
		if err = c.store.Put(key, img); err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("core: persist segment %d: %w", seg.ID, err)
	}
	if err := c.tierSegment(seg, img); err != nil {
		_ = c.store.Delete(key) // the segment never goes live
		return err
	}
	return nil
}

// scheduleIndex queues index building for segments that cross the size
// threshold. It never builds inline: in SyncIndex mode, or when the async
// queue is full, the segment is returned for the caller to build once
// c.mu is released — a kmeans training run must not sit inside the
// collection's critical section, where it would starve every concurrent
// read and write.
func (c *Collection) scheduleIndex(seg *Segment) *Segment {
	if seg.Rows() < c.cfg.IndexRows {
		return nil
	}
	c.pendingIdx.Add(1)
	if !c.cfg.SyncIndex {
		select {
		case c.indexCh <- seg:
			return nil
		default:
			// Queue full: the caller builds rather than dropping the request.
		}
	}
	return seg
}

// takeDeferredLocked hands back the segments whose index builds were
// deferred out of the critical section. Caller holds c.mu and runs
// buildDeferred on the result after releasing it.
func (c *Collection) takeDeferredLocked() []*Segment {
	b := c.deferredBuilds
	c.deferredBuilds = nil
	return b
}

// buildDeferred performs deferred index builds. Caller must NOT hold c.mu.
func (c *Collection) buildDeferred(segs []*Segment) {
	for _, seg := range segs {
		c.buildSegmentIndexes(seg)
		c.pendingIdx.Add(-1)
	}
}

func (c *Collection) indexBuilder() {
	defer c.indexWG.Done()
	for seg := range c.indexCh {
		c.buildSegmentIndexes(seg)
		c.pendingIdx.Add(-1)
	}
}

func (c *Collection) buildSegmentIndexes(seg *Segment) {
	// The segment may have been merged away (and GC'd) between scheduling
	// and this build — skip dead segments rather than indexing garbage.
	if !c.snaps.segmentLive(seg.ID) {
		return
	}
	for f := range c.schema.VectorFields {
		if seg.Index(f) != nil {
			continue
		}
		if c.schema.VectorFields[f].Metric.Binary() && c.cfg.IndexType != "FLAT" {
			// Quantization/graph indexes do not apply to bit-packed binary
			// fields; the exact word-wise scan serves them (Sec. 2.1).
			continue
		}
		t0 := time.Now()
		err := seg.BuildIndex(c.schema, f, c.cfg.IndexType, c.cfg.IndexParams)
		c.observeIndexBuild(seg, f, c.cfg.IndexType, time.Since(t0), err)
		if err != nil {
			// An index failure leaves the segment searchable by scan; the
			// error is not fatal to the collection.
			continue
		}
		c.persistIndex(seg, f)
		c.tierIndexPayload(seg, f)
	}
}

// BuildIndex synchronously builds the named index type on every current
// segment of a vector field, regardless of segment size ("users are allowed
// to manually build indexes for segments of any size", Sec. 2.3).
func (c *Collection) BuildIndex(fieldName, indexType string, params map[string]string) error {
	f, err := c.schema.VectorFieldIndex(fieldName)
	if err != nil {
		return err
	}
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	for _, seg := range sn.Segments {
		t0 := time.Now()
		err := seg.BuildIndex(c.schema, f, indexType, params)
		c.observeIndexBuild(seg, f, indexType, time.Since(t0), err)
		if err != nil {
			return err
		}
		c.persistIndex(seg, f)
		c.tierIndexPayload(seg, f)
	}
	return nil
}

// WaitIndexed blocks until the async index builder has drained (tests and
// benchmarks that need built indexes deterministically).
func (c *Collection) WaitIndexed() {
	for c.pendingIdx.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// SearchOptions carries query-time knobs.
type SearchOptions struct {
	Field   string // vector field name; defaults to the first field
	K       int
	Nprobe  int
	Ef      int
	SearchL int
	// Trace, when set, receives the query's span breakdown. Queries that
	// leave it nil get a trace automatically when the collection has a
	// query log.
	Trace *obs.Trace
	// segBits carries a compiled predicate: one bitset over build positions
	// per segment of the pinned snapshot, in segment order, the snapshot's
	// visibility already ANDed in. Set only by the pushdown paths, which
	// compile against the same pinned snapshot the search runs on.
	segBits pushedBits
}

// Params converts the options to index-level search parameters (without a
// filter; callers attach the per-segment bitset).
func (o *SearchOptions) Params() index.SearchParams {
	return index.SearchParams{K: o.K, Nprobe: o.Nprobe, Ef: o.Ef, SearchL: o.SearchL}
}

// Search runs a top-k vector query over the current snapshot: each segment
// is searched (index or scan) and per-segment results are merged — the
// segment is the unit of searching (Sec. 2.3).
func (c *Collection) Search(query []float32, opts SearchOptions) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return c.SearchCtx(context.Background(), query, opts)
}

// SearchCtx is Search with cancellation and admission control: the query
// waits for an in-flight slot on the shared execution pool (fast-failing
// with exec.ErrRejected under overload) and stops between segments once
// ctx is cancelled or past its deadline, returning ctx's error. The
// cost-based planner prices each admitted query's venue (flat scan or index
// probe) from the snapshot's shape and the live pool load; the decision
// rides the trace as plan=.
func (c *Collection) SearchCtx(ctx context.Context, query []float32, opts SearchOptions) ([]topk.Result, error) {
	res, err := c.execute(ctx, &Query{kind: kindVector, vec: query, opts: opts})
	return res.hits, err
}

// SearchSnapshotCtx is SearchCtx against an explicitly pinned snapshot. It is
// not counted, planned or admitted — callers holding a pinned snapshot are
// either inside an already-admitted query (filter strategies, multi-vector
// rounds) or managing admission themselves.
func (c *Collection) SearchSnapshotCtx(ctx context.Context, sn *Snapshot, query []float32, opts SearchOptions) ([]topk.Result, error) {
	f, err := c.checkVector(opts.Field, query, opts.K)
	if err != nil {
		return nil, err
	}
	return c.searchSnapshot(ctx, sn, f, query, opts)
}

// searchSnapshot is the per-segment sweep: every segment of the pinned
// snapshot is searched (index or scan) into per-task heaps, and the heaps
// are merged. The query is already validated; f is its vector field.
func (c *Collection) searchSnapshot(ctx context.Context, sn *Snapshot, f int, query []float32, opts SearchOptions) ([]topk.Result, error) {
	tr := opts.Trace
	p := opts.Params()
	segs := sn.Segments
	if len(segs) == 0 {
		return nil, ctx.Err()
	}
	segSpan := tr.StartSpan("segments")
	workers := poolTasks(c.pool, len(segs))
	// One heap per pool task rather than one result list per segment: a
	// task's heap carries its worst-distance threshold across the segments
	// it claims (cross-segment pruning), and the final merge touches at
	// most `workers` short lists.
	heaps := make([]*topk.Heap, workers)
	var nIdx atomic.Int64 // segments served by an index
	// Segments are claimed dynamically off an atomic cursor by however
	// many shared-pool tasks this query gets, so slow segments do not
	// stall the rest (same balancing the per-query channel fanout had,
	// without per-query goroutines).
	var cursor atomic.Int64
	err := c.pool.Map(ctx, workers, func(w int) {
		h := topk.GetHeap(opts.K)
		heaps[w] = h
		for ctx.Err() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= len(segs) {
				return
			}
			sp := p
			sp.Bits = sn.visible[i]
			if opts.segBits != nil {
				sp.Bits = opts.segBits[i]
			}
			stage := "segment_scan"
			idx := segs[i].Index(f)
			if idx != nil {
				stage = "index_search"
				nIdx.Add(1)
			}
			span := segSpan.StartChild(stage)
			span.AnnotateInt("segment", segs[i].ID)
			span.AnnotateInt("rows", int64(segs[i].Rows()))
			if opts.segBits != nil {
				span.Annotate("filter_mode", segFilterMode(idx, sp.Bits, segs[i].Rows()))
			}
			segs[i].SearchInto(h, c.schema, f, query, sp)
			span.End()
		}
	})
	c.met.segIndex.Add(nIdx.Load())
	c.met.segScan.Add(int64(len(segs)) - nIdx.Load())
	segSpan.AnnotateInt("indexed", nIdx.Load())
	segSpan.AnnotateInt("scanned", int64(len(segs))-nIdx.Load())
	segSpan.End()
	if err != nil {
		return nil, err
	}
	mergeSpan := tr.StartSpan("topk_merge")
	var res []topk.Result
	if workers == 1 && heaps[0] != nil {
		res = heaps[0].Results()
	} else {
		lists := make([][]topk.Result, 0, workers)
		for _, h := range heaps {
			if h != nil {
				lists = append(lists, h.Snapshot())
			}
		}
		res = topk.Merge(opts.K, lists...)
	}
	for _, h := range heaps {
		if h != nil {
			topk.PutHeap(h)
		}
	}
	mergeSpan.End()
	return res, nil
}

// segFilterMode names how one segment evaluates a pushed bitset: graph
// indexes run filtered traversal; scans (and bucket probes) pick dense run
// extraction or the sparse gather path from the segment's selectivity.
func segFilterMode(idx index.Index, bits *bitset.Bitset, rows int) string {
	if idx != nil {
		switch idx.Name() {
		case "HNSW", "RNSG":
			return "graph"
		}
	}
	sel := 0.0
	if rows > 0 {
		sel = float64(bits.Count()) / float64(rows)
	}
	return index.FilterModeName(sel)
}

// poolTasks sizes a query's fan-out: at most one task per pool worker and
// one per work item. Each task then claims items dynamically.
func poolTasks(p *exec.Pool, items int) int {
	n := p.Workers()
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// AcquireSnapshot pins the current snapshot for a multi-call read; pair
// with ReleaseSnapshot.
func (c *Collection) AcquireSnapshot() *Snapshot { return c.snaps.acquire() }

// ReleaseSnapshot unpins a snapshot acquired with AcquireSnapshot.
func (c *Collection) ReleaseSnapshot(sn *Snapshot) { c.snaps.release(sn) }

// Get returns the visible entity with the given ID (the newest copy when a
// delete-then-reinsert left an older tombstoned one behind).
func (c *Collection) Get(id int64) (*Entity, bool) {
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	for i := len(sn.Segments) - 1; i >= 0; i-- {
		seg := sn.Segments[i]
		p, ok := seg.posOf(id)
		if !ok || (sn.visible[i] != nil && !sn.visible[i].Test(int(p))) {
			continue
		}
		e := &Entity{ID: id}
		for f := range c.schema.VectorFields {
			rowAt, rel, err := seg.vectorRows(f)
			if err != nil {
				// Promotion exhausted its retries; the row is not
				// readable right now. Treat as absent rather than torn.
				return nil, false
			}
			v := append([]float32(nil), rowAt(int(p))...)
			rel()
			e.Vectors = append(e.Vectors, v)
		}
		for a := range c.schema.AttrFields {
			e.Attrs = append(e.Attrs, seg.RawAttrs[a][p])
		}
		for cf := range c.schema.CatFields {
			e.Cats = append(e.Cats, seg.RawCats[cf][p])
		}
		return e, true
	}
	return nil, false
}

// Count returns the number of visible entities.
func (c *Collection) Count() int {
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	return sn.LiveRows()
}

// Stats summarizes the collection's physical state.
type Stats struct {
	Segments      int
	TotalRows     int
	LiveRows      int
	Tombstones    int
	SegmentRows   []int
	LiveSnapshots int
}

// Stats returns current physical statistics.
func (c *Collection) Stats() Stats {
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	st := Stats{
		Segments:      len(sn.Segments),
		TotalRows:     sn.TotalRows(),
		LiveRows:      sn.LiveRows(),
		Tombstones:    len(sn.Deleted),
		LiveSnapshots: c.snaps.liveSnapshots(),
	}
	for _, s := range sn.Segments {
		st.SegmentRows = append(st.SegmentRows, s.Rows())
	}
	sort.Ints(st.SegmentRows)
	return st
}

// Close flushes pending writes and stops background workers.
func (c *Collection) Close() error {
	var err error
	c.closeOnce.Do(func() {
		if c.former != nil {
			c.former.Close() // run parked groups while the pool is still up
		}
		err = c.Flush()
		close(c.stopTimer)
		c.log.Close()
		close(c.indexCh)
		c.indexWG.Wait()
	})
	return err
}

// Abandon stops background workers WITHOUT flushing — it simulates an
// instance crash (Sec. 5.3): buffered writes die with the process and must
// be recovered by replaying the write-ahead log from shared storage.
func (c *Collection) Abandon() {
	c.closeOnce.Do(func() {
		if c.former != nil {
			c.former.Close()
		}
		close(c.stopTimer)
		c.log.Close()
		close(c.indexCh)
		c.indexWG.Wait()
	})
}
