package core

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// (default IVF_FLAT; FLAT builds none: every segment is scanned).
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
	// QueryLog keeps every query's record (and the slow ones), a record
	// made for each query that did not supply its own SearchOptions.Trace.
	// Nil disables automatic records.
	QueryLog *obs.QueryLog
	// Exec is the shared execution pool that runs this collection's
	// segment-level search tasks, admits its queries to run slots and
	// forms its batches (Sec. 3.2: schedule against fixed threads instead
	// of spawning per query). Nil means the process-wide exec.Default()
	// pool.
	Exec *exec.Pool
	// TierDir enables out-of-core sealed segments when non-empty: each
	// sealed segment's stored image is also written as one mmap-backed
	// extent file under this directory, vector payloads are dropped from
	// the Go heap, and scans read the mapped bytes in place.
	// A demoted segment's cold copy is its object in the collection's
	// store. Empty keeps the all-RAM behaviour.
	TierDir string
	// TierMappedBytes bounds the summed size of mmap'd extent files, the
	// tier's one residency bound; when exceeded, the least-recently-used
	// unpinned mapped segments demote to cold. 0 keeps every tiered segment
	// mapped.
	TierMappedBytes int64
	// Planner is the cost-based query planner pricing per-query execution
	// venue and deciding filter strategy. Nil creates a collection-private
	// planner on the measured prior; DB-created collections share the
	// database's planner so its profile and the vectordb_plan_* series are
	// process-wide.
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

// memTable buffers writes before they become an immutable segment: the
// inserted rows, as the columns the segment takes, and the tombstones.
type memTable struct {
	rows    wal.Batch
	deletes []tombstone
}

func (m *memTable) empty() bool { return m.rows.Rows() == 0 && len(m.deletes) == 0 }

// appendRows appends rows [lo, hi) of src to dst, column by column. A nil
// column of dst takes src's rows themselves rather than a copy (see grow),
// so a fresh MemTable holds an insert batch's own columns.
func appendRows(dst, src *wal.Batch, lo, hi int) {
	n := src.Rows()
	if dst.Vectors == nil {
		dst.Vectors, dst.Attrs, dst.Cats = make([][]float32, len(src.Vectors)), make([][]int64, len(src.Attrs)), make([][]string, len(src.Cats))
	}
	dst.IDs = grow(dst.IDs, src.IDs[lo:hi])
	for f, v := range src.Vectors {
		d := len(v) / n
		dst.Vectors[f] = grow(dst.Vectors[f], v[lo*d:hi*d])
	}
	for a, col := range src.Attrs {
		dst.Attrs[a] = grow(dst.Attrs[a], col[lo:hi])
	}
	for c, col := range src.Cats {
		dst.Cats[c] = grow(dst.Cats[c], col[lo:hi])
	}
}

// grow appends src to dst. A nil dst becomes src, its capacity capped so
// that a later append copies instead of writing past src.
func grow[T any](dst, src []T) []T {
	if dst == nil {
		return src[:len(src):len(src)]
	}
	return append(dst, src...)
}

// remove drops the rows whose ID is in ids, compacting every column in
// one pass.
func (m *memTable) remove(ids []int64) {
	drop := make(map[int64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	r, n, j := &m.rows, m.rows.Rows(), 0
	for i, id := range r.IDs {
		if drop[id] {
			continue
		}
		if i != j {
			r.IDs[j] = id
			for _, v := range r.Vectors {
				d := len(v) / n
				copy(v[j*d:(j+1)*d], v[i*d:(i+1)*d])
			}
			for _, col := range r.Attrs {
				col[j] = col[i]
			}
			for _, col := range r.Cats {
				col[j] = col[i]
			}
		}
		j++
	}
	if j == n {
		return
	}
	r.IDs = r.IDs[:j]
	for f, v := range r.Vectors {
		r.Vectors[f] = v[:j*(len(v)/n)]
	}
	for a, col := range r.Attrs {
		r.Attrs[a] = col[:j]
	}
	for c, col := range r.Cats {
		r.Cats[c] = col[:j]
	}
}

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
	form   *formMetrics // nil when batching is off (exec MaxBatch 1)

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

	indexWG sync.WaitGroup
	indexCh chan *Segment
	// pendingIdx counts scheduled index builds not yet finished;
	// WaitIndexed waits on idxDrained until it is 0.
	pendingMu  sync.Mutex
	pendingIdx int
	idxDrained sync.Cond
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
	c.idxDrained.L = &c.pendingMu
	if cfg.TierDir != "" {
		c.tier = &collTier{
			dir:    filepath.Join(cfg.TierDir, name),
			store:  store,
			budget: cfg.TierMappedBytes,
			met:    c.met,
			segs:   map[uint64]*segTier{},
		}
	}
	c.snaps = newSnapTracker(func(seg *Segment) {
		// Background GC of obsolete segments (Sec. 5.2): drop the segment
		// object, any persisted per-field indexes, and the tiered extent
		// storage (mapping, local file). Payload tiers go with the last
		// version serving them.
		key := c.segmentKey(seg.ID)
		_ = c.store.Delete(key)
		for f := range schema.VectorFields {
			_ = c.store.Delete(IndexKey(key, f))
		}
		if seg.tier != nil {
			seg.tier.destroy()
		}
		c.met.segGC.Inc()
	}, (*segTier).destroy)
	c.snaps.install(newSnapshot(c.allocSnapID(), nil, nil, nil))
	c.log = wal.NewLog(c.applyBatch,
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
	if c.pool.MaxBatch() > 1 {
		c.form = newFormMetrics(cfg.Obs, name)
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

// Insert inserts a copy of entities, which must agree in shape (Columns),
// as one batch: the caller may change its slices once Insert returns.
func (c *Collection) Insert(entities []Entity) error {
	b, err := Columns(entities)
	if err != nil {
		return err
	}
	return c.InsertBatch(b)
}

// InsertBatch checks an insert batch against the schema and appends it to
// the log as one entry, which acknowledges it; a background thread applies
// it (Sec. 5.1). Call Flush to make the rows visible to queries. The
// collection takes b: the caller must not change it afterwards.
func (c *Collection) InsertBatch(b *wal.Batch) error {
	if b.Kind != wal.Insert {
		return fmt.Errorf("core: InsertBatch of a kind %d batch", b.Kind)
	}
	if err := c.schema.CheckBatch(b); err != nil {
		return err
	}
	return c.appendLog(b, c.met.insertRows)
}

// Delete tombstones entities by ID, asynchronously, as one log entry
// (out-of-place deletion, Sec. 2.3; the vectors are physically removed at
// the next merge).
func (c *Collection) Delete(ids []int64) error {
	return c.appendLog(&wal.Batch{Kind: wal.Delete, IDs: slices.Clone(ids)}, c.met.deleteRows)
}

// appendLog appends a batch with rows to the log and counts its rows as
// acknowledged.
func (c *Collection) appendLog(b *wal.Batch, acked *obs.Counter) error {
	if b.Rows() == 0 {
		return nil
	}
	if err := c.log.Append(b); err != nil {
		return err
	}
	acked.Add(int64(b.Rows()))
	return nil
}

// applyBatch is the WAL consumer. An insert fills the MemTable, which
// seals at exactly FlushRows rows, so a batch splits at that boundary. A
// delete removes its IDs from the MemTable (they were inserted before it)
// and gives flushed copies a tombstone scoped to the segments existing
// now, so a later re-insert of the same ID stays visible.
func (c *Collection) applyBatch(b *wal.Batch) {
	c.mu.Lock()
	defer func() {
		builds := c.takeDeferredLocked()
		c.mu.Unlock()
		c.buildDeferred(builds)
	}()
	if b.Kind == wal.Delete {
		c.mem.remove(b.IDs)
		for _, id := range b.IDs {
			c.mem.deletes = append(c.mem.deletes, tombstone{id: id, seq: c.nextSeg})
		}
		return
	}
	for lo := 0; lo < b.Rows(); {
		// A MemTable a failed seal left at FlushRows or more takes one
		// row per retry.
		hi := min(b.Rows(), lo+max(c.cfg.FlushRows-c.mem.rows.Rows(), 1))
		appendRows(&c.mem.rows, b, lo, hi)
		if c.mem.rows.Rows() >= c.cfg.FlushRows {
			c.flushLocked()
		}
		lo = hi
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
	if mem.rows.Rows() > 0 {
		seg, err := c.buildSegment(&mem.rows)
		if err != nil {
			// Put the sealed rows back (nothing was applied since: we
			// hold c.mu) and retry at the next flush.
			c.mem = mem
			c.flushErr = err
			c.met.flushErrs.Inc()
			return err
		}
		c.met.segBuilt.Inc()
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

// buildSegment seals rows into a new immutable segment and persists it;
// flush (the MemTable's rows) and merge share it. The segment takes the
// columns, each in an array of its own length.
func (c *Collection) buildSegment(rows *wal.Batch) (*Segment, error) {
	c.nextSeg++
	seg := newSegment(c.nextSeg)
	seg.IDs = exact(rows.IDs)
	for f, vf := range c.schema.VectorFields {
		seg.Vectors = append(seg.Vectors, colstore.NewVectorColumn(vf.Dim, exact(rows.Vectors[f])))
	}
	for _, col := range rows.Attrs {
		seg.RawAttrs = append(seg.RawAttrs, exact(col))
	}
	for _, col := range rows.Cats {
		seg.RawCats = append(seg.RawCats, exact(col))
	}
	seg.buildAttrColumns()
	if err := c.seal(seg); err != nil {
		// The flush path retries the whole seal on the next flush; nothing
		// acknowledged is lost.
		return nil, err
	}
	return seg, nil
}

// exact is s in an array of its own length: a sealed column keeps none of
// the MemTable's append slack.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return slices.Clone(s)
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
// threshold (FLAT builds none). It never builds inline: in SyncIndex mode,
// or when the async queue is full, the segment is returned for the caller
// to build once c.mu is released — a kmeans training run must not sit
// inside the collection's critical section, where it would starve every
// concurrent read and write.
func (c *Collection) scheduleIndex(seg *Segment) *Segment {
	if seg.Rows() < c.cfg.IndexRows || c.cfg.IndexType == "FLAT" {
		return nil
	}
	c.indexPending(1)
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
		c.indexPending(-1)
	}
}

func (c *Collection) indexBuilder() {
	defer c.indexWG.Done()
	for seg := range c.indexCh {
		c.buildSegmentIndexes(seg)
		c.indexPending(-1)
	}
}

func (c *Collection) buildSegmentIndexes(seg *Segment) {
	var builds []builtIndex
	for f, vf := range c.schema.VectorFields {
		// The segment may have been merged away (and GC'd) between
		// scheduling and this build — skip dead segments rather than
		// indexing garbage.
		if !c.snaps.segmentLive(seg.ID) {
			break
		}
		if vf.Metric.Binary() {
			// Quantization/graph indexes do not apply to bit-packed binary
			// fields; the exact word-wise scan serves them (Sec. 2.1).
			continue
		}
		b, err := c.buildIndex(seg, f, c.cfg.IndexType, c.cfg.IndexParams)
		if err != nil {
			// An index failure leaves the segment searchable by scan; the
			// error is not fatal to the collection.
			continue
		}
		builds = append(builds, b)
	}
	c.install(builds, true)
}

// BuildIndex synchronously builds the named index type on every current
// segment of a vector field, regardless of segment size ("users are allowed
// to manually build indexes for segments of any size", Sec. 2.3). Each
// segment's build installs a new version of it over whatever version is
// current by then.
func (c *Collection) BuildIndex(fieldName, indexType string, params map[string]string) error {
	f, err := c.schema.VectorFieldIndex(fieldName)
	if err != nil {
		return err
	}
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	for _, seg := range sn.Segments {
		b, err := c.buildIndex(seg, f, indexType, params)
		if err != nil {
			return err
		}
		c.install([]builtIndex{b}, false)
	}
	return nil
}

// builtIndex is one index build's result: a value until install applies it
// to the current version of its segment.
type builtIndex struct {
	seg     int64       // segment ID
	field   int         // vector field
	idx     index.Index // nil: the field scans its column
	payload *segTier    // the externalized payload idx reads, or nil
	blob    []byte      // the persisted form; nil when the type has none
}

// buildIndex builds seg's index of the field as a value: built, encoded for
// the store, externalized on a tiered segment and instrumented. Nothing is
// installed or persisted.
func (c *Collection) buildIndex(seg *Segment, field int, indexType string, params map[string]string) (builtIndex, error) {
	t0 := time.Now()
	idx, err := seg.BuildIndex(c.schema, field, indexType, params)
	c.met.idx.ObserveBuild(indexType, time.Since(t0), err)
	b := builtIndex{seg: seg.ID, field: field}
	if err != nil || idx == nil {
		return b, err
	}
	b.blob = encodeIndex(idx)
	idx, b.payload = c.externalize(seg, field, idx)
	b.idx = c.met.idx.Instrument(idx)
	return b, nil
}

// install applies builds, each to the current version of its segment, and
// installs the new versions in one snapshot (Sec. 5.2). Row positions do
// not change, so the snapshot shares its predecessor's tombstones and
// visibility bits. A build whose segment was merged away is dropped, and so
// is an automatic one (auto) whose field another build indexed meanwhile; a
// manual build replaces whatever index is current. A dropped build's payload
// tier is destroyed. An installed field's blob is written, or deleted when
// the index has none, in install order, so the store holds the blob of the
// index the segment serves.
func (c *Collection) install(builds []builtIndex, auto bool) {
	if len(builds) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.snaps.acquire()
	defer c.snaps.release(cur)
	segs := slices.Clone(cur.Segments)
	installed := false
	for _, b := range builds {
		i := slices.IndexFunc(segs, func(s *Segment) bool { return s.ID == b.seg })
		if i < 0 || auto && segs[i].Index(b.field) != nil {
			if b.payload != nil {
				b.payload.destroy()
			}
			continue
		}
		segs[i] = segs[i].withIndex(b.field, b.idx, b.payload)
		c.persistIndex(b)
		installed = true
	}
	if installed {
		c.snaps.install(&Snapshot{ID: c.allocSnapID(), Segments: segs, Deleted: cur.Deleted, visible: cur.visible, hidden: cur.hidden})
	}
}

// indexPending adds d to the scheduled index builds, waking WaitIndexed
// when none is left.
func (c *Collection) indexPending(d int) {
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	if c.pendingIdx += d; c.pendingIdx == 0 {
		c.idxDrained.Broadcast()
	}
}

// WaitIndexed blocks until the async index builder has drained (tests and
// benchmarks that need built indexes deterministically).
func (c *Collection) WaitIndexed() {
	c.pendingMu.Lock()
	defer c.pendingMu.Unlock()
	for c.pendingIdx > 0 {
		c.idxDrained.Wait()
	}
}

// SearchOptions carries query-time knobs.
type SearchOptions struct {
	Field   string // vector field name; defaults to the first field
	K       int
	Nprobe  int
	Ef      int
	SearchL int
	// Trace, when set, receives the query's stage and attribute record.
	// Queries that leave it nil get one automatically when the collection
	// has a query log.
	Trace *obs.QueryRecord
}

// Params converts the options to index-level search parameters (without a
// filter; callers attach the per-segment bitset).
func (o *SearchOptions) Params() index.SearchParams {
	return index.SearchParams{K: o.K, Nprobe: o.Nprobe, Ef: o.Ef, SearchL: o.SearchL}
}

// SearchCtx is Query of one vector with opts.
func (c *Collection) SearchCtx(ctx context.Context, query []float32, opts SearchOptions) ([]topk.Result, error) {
	res, err := c.Query(ctx, Request{Vector: query, SearchOptions: opts})
	return res.Hits, err
}

// searchSnapshot sweeps the pinned snapshot for a solo query: each
// segment's body is Segment.SearchInto. The query is already validated; f
// is its vector field.
func (c *Collection) searchSnapshot(ctx context.Context, sn *Snapshot, f int, query []float32, opts SearchOptions) ([]topk.Result, error) {
	var out [1][]topk.Result
	err := c.sweep(ctx, sn, opts.Trace, f, opts.Params(), out[:], func(seg *Segment, p index.SearchParams, hs []*topk.Heap) error {
		return seg.SearchInto(hs[0], c.schema, f, query, p)
	})
	return out[0], err
}

// searchPred sweeps the pinned snapshot for a filtered query (Sec. 4.1),
// each segment's task compiling pred with the segment's visibility ANDed
// in. Strategy B (pushdown) compiles it at the positions the segment's
// index or scan reads and pushes it beneath them (Segment.SearchFiltered).
// Strategy A (scan set) compiles it at every position and scores those
// rows with the segment's scan, never its index (Segment.scanFiltered), so
// every segment counts as a segment_scan, and a filter that passes no row
// answers nil. The matched share of the rows read names the filter_mode.
func (c *Collection) searchPred(ctx context.Context, sn *Snapshot, f int, query []float32, pred colstore.Pred, scan bool, opts SearchOptions) ([]topk.Result, error) {
	tr := opts.Trace
	strategy, swept, search := "B", f, (*Segment).SearchFiltered
	if scan {
		strategy, swept, search = "A", scanField, (*Segment).scanFiltered
	}
	tr.SetString(obs.FilterStrategy, strategy)
	var out [1][]topk.Result
	var matched, probed atomic.Int64
	err := c.sweep(ctx, sn, tr, swept, opts.Params(), out[:], func(seg *Segment, p index.SearchParams, hs []*topk.Heap) error {
		m, n, err := search(seg, hs[0], c.schema, f, query, pred, p, tr != nil)
		matched.Add(int64(m))
		probed.Add(int64(n))
		return err
	})
	if err != nil || scan && matched.Load() == 0 {
		return nil, err
	}
	if tr != nil {
		sel := float64(matched.Load()) / float64(max(probed.Load(), 1))
		tr.SetString(obs.FilterMode, index.FilterModeName(sel))
		tr.SetFloat(obs.FilterSelectivity, sel)
	}
	return out[0], nil
}

// segmentBody is a runner's search of one segment in a sweep, with p's
// Bits the segment's visibility bits in the swept snapshot (nil hides
// nothing), into hs, the claiming task's heaps, one per member. Its error
// is a segment that could not be searched.
type segmentBody func(seg *Segment, p index.SearchParams, hs []*topk.Heap) error

// sweep is the one fan-out of a query over a pinned snapshot's segments,
// the unit of searching and scheduling (Sec. 2.3). Pool tasks (poolTasks)
// claim segments off one cursor, so a slow segment does not stall the
// rest. Each task draws one pooled heap per member — len(out) of them: one
// for a solo, pushed-down or fused query, the batch size for a batch — so
// a member's worst distance prunes across every segment its task claims,
// and body searches each claimed segment into them. A segment that field
// is indexed on counts and traces as an index_search, any other
// (scanField: every segment) as a segment_scan.
// ctx or the first segment error fails the sweep; otherwise each member's
// heaps fold into its out slot under topk_merge, the query's only sort.
func (c *Collection) sweep(ctx context.Context, sn *Snapshot, tr *obs.QueryRecord, field int, p index.SearchParams, out [][]topk.Result, body segmentBody) error {
	segs := sn.Segments
	if len(segs) == 0 {
		return ctx.Err()
	}
	segSpan := tr.Start(obs.Segments)
	m, tasks := len(out), poolTasks(c.pool, len(segs))
	heaps := make([]*topk.Heap, tasks*m) // task w's row is heaps[w*m : (w+1)*m]
	var st struct {
		cursor, indexed atomic.Int64
		err             atomic.Pointer[error] // the first segment error
	}
	err := c.pool.Map(ctx, tasks, func(w int) {
		hs := heaps[w*m : (w+1)*m]
		for j := range hs {
			hs[j] = topk.GetHeap(p.K)
		}
		for ctx.Err() == nil {
			i := int(st.cursor.Add(1)) - 1
			if i >= len(segs) {
				return
			}
			stage := obs.SegmentScan
			if segs[i].Index(field) != nil {
				stage = obs.IndexSearch
				st.indexed.Add(1)
			}
			span := tr.Start(stage)
			sp := p
			sp.Bits = sn.visible[i]
			if err := body(segs[i], sp, hs); err != nil {
				first := err // escapes only on the error path
				st.err.CompareAndSwap(nil, &first)
			}
			span.End()
		}
	})
	nIdx := st.indexed.Load()
	c.met.segIndex.Add(nIdx)
	c.met.segScan.Add(int64(len(segs)) - nIdx)
	tr.SetInt(obs.Indexed, nIdx)
	tr.SetInt(obs.Scanned, int64(len(segs))-nIdx)
	segSpan.End()
	if e := st.err.Load(); e != nil && err == nil {
		err = *e
	}
	if err == nil {
		// Map returned no error, so every task ran and drew its row.
		mergeSpan := tr.Start(obs.TopkMerge)
		for j := range out {
			for w := 1; w < tasks; w++ {
				heaps[j].Fold(heaps[w*m+j])
			}
			out[j] = heaps[j].Results()
		}
		mergeSpan.End()
	}
	for _, h := range heaps {
		if h != nil {
			topk.PutHeap(h)
		}
	}
	return err
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
		close(c.stopTimer)
		c.log.Close()
		close(c.indexCh)
		c.indexWG.Wait()
	})
}
