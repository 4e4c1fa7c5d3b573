package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"vectordb/internal/bitset"
	"vectordb/internal/bufferpool"
	"vectordb/internal/colstore"
	"vectordb/internal/core"
	"vectordb/internal/index"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// ReaderConfig tunes a reader instance.
type ReaderConfig struct {
	// CacheBytes is the local buffer capacity standing in for the
	// instance's "significant amount of buffer memory and SSDs" (Sec. 5.3);
	// default 256 MiB.
	CacheBytes int64
	// IndexRows, IndexType, IndexParams control local per-segment index
	// builds on loaded segments (default: IVF_FLAT on segments ≥ 4096 rows).
	IndexRows   int
	IndexType   string
	IndexParams map[string]string
	// Obs, when set, receives per-reader series (vectordb_reader_* labeled
	// reader="<id>") including the cache hit/miss counters.
	Obs *obs.Registry
}

func (c *ReaderConfig) defaults() {
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.IndexRows <= 0 {
		c.IndexRows = 4096
	}
	if c.IndexType == "" {
		c.IndexType = "IVF_FLAT"
	}
}

// Reader is one stateless read instance: it serves queries for the shard of
// segments that consistent hashing assigns to it, caching segment data
// loaded from shared storage and building local indexes for large segments.
type Reader struct {
	ID    string
	store objstore.Store
	cfg   ReaderConfig

	// mu is an RWMutex: the hot query path only reads (liveness check,
	// manifest lookup, pool pointer), so concurrent searches proceed
	// without contending; Crash/Restart/manifest refresh take the write
	// lock.
	mu        sync.RWMutex
	alive     bool
	pool      *bufferpool.Pool
	manifests map[string]*readerManifest

	searches *obs.Counter
	segLoads *obs.Counter
	idxMet   *index.Metrics
}

type readerManifest struct {
	version int64
	man     *Manifest
	schema  core.Schema
	deleted map[int64]int64 // man's tombstones in core.Snapshot.Deleted form

	// visible holds deleted resolved against each segment searched under
	// this manifest version (segment key → visibility bits, nil when the
	// segment hides nothing): once per (version, segment), not per query.
	mu      sync.Mutex
	visible map[string]*bitset.Bitset
}

// visibility returns seg's visibility bits under this manifest's tombstones.
func (rm *readerManifest) visibility(segKey string, seg *core.Segment) *bitset.Bitset {
	if len(rm.deleted) == 0 {
		return nil
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	vis, ok := rm.visible[segKey]
	if !ok {
		vis = seg.Visibility(rm.deleted)
		rm.visible[segKey] = vis
	}
	return vis
}

// NewReader creates a live reader instance.
func NewReader(id string, store objstore.Store, cfg ReaderConfig) *Reader {
	cfg.defaults()
	r := &Reader{ID: id, store: store, cfg: cfg, alive: true, manifests: map[string]*readerManifest{}}
	r.pool = bufferpool.New(cfg.CacheBytes, r.loadSegment)
	r.searches = cfg.Obs.Counter("vectordb_reader_searches_total", "reader", id)
	r.segLoads = cfg.Obs.Counter("vectordb_reader_segment_loads_total", "reader", id)
	r.idxMet = index.NewMetrics(cfg.Obs)
	// Scrape-time funcs rather than counters, because the pool counts
	// internally and is replaced wholesale on Crash — collection always
	// reflects the live pool.
	cfg.Obs.CounterFunc("vectordb_reader_cache_hits_total", func() int64 {
		h, _ := r.CacheStats()
		return h
	}, "reader", id)
	cfg.Obs.CounterFunc("vectordb_reader_cache_misses_total", func() int64 {
		_, m := r.CacheStats()
		return m
	}, "reader", id)
	return r
}

// Alive reports whether the instance is up.
func (r *Reader) Alive() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive
}

// Crash simulates an instance crash: the cache and manifest state die.
func (r *Reader) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.alive = false
	r.manifests = map[string]*readerManifest{}
	r.pool = bufferpool.New(r.cfg.CacheBytes, r.loadSegment)
}

// CacheStats reports buffer pool hits and misses.
func (r *Reader) CacheStats() (hits, misses int64) {
	r.mu.RLock()
	pool := r.pool
	r.mu.RUnlock()
	return pool.Stats()
}

// loadSegment is the bufferpool loader: fetch + decode a segment object and
// build its local index if it is large.
func (r *Reader) loadSegment(key string) (any, int64, error) {
	// key = "<collection>\x00<segmentKey>"
	var collection, segKey string
	for i := 0; i < len(key); i++ {
		if key[i] == 0 {
			collection, segKey = key[:i], key[i+1:]
			break
		}
	}
	r.mu.RLock()
	rm := r.manifests[collection]
	r.mu.RUnlock()
	if rm == nil {
		return nil, 0, fmt.Errorf("cluster: reader %s has no manifest for %q", r.ID, collection)
	}
	blob, err := r.store.Get(segKey)
	if err != nil {
		return nil, 0, err
	}
	seg, err := core.DecodeSegment(blob, &rm.schema)
	if err != nil {
		return nil, 0, err
	}
	r.segLoads.Inc()
	// The segment's indexes are assembled into the version the pool
	// publishes; no search sees it without them.
	for f, vf := range rm.schema.VectorFields {
		// Prefer the index the writer persisted with the segment
		// (Sec. 2.3: index and data live together); build locally only for
		// large segments without one. Scan remains the fallback.
		idx, ok := core.LoadSegmentIndex(r.store, segKey, f, vf.Metric, vf.Dim)
		if !ok && seg.Rows() >= r.cfg.IndexRows {
			t0 := time.Now()
			idx, err = seg.BuildIndex(&rm.schema, f, r.cfg.IndexType, r.cfg.IndexParams)
			r.idxMet.ObserveBuild(r.cfg.IndexType, time.Since(t0), err)
		}
		if idx != nil {
			seg = seg.WithIndex(f, r.idxMet.Instrument(idx))
		}
	}
	return seg, seg.SizeBytes(), nil
}

// refreshManifest ensures the reader has the manifest at version (readers
// poll shared storage when the coordinator's version moves).
func (r *Reader) refreshManifest(collection string, version int64) (*readerManifest, error) {
	r.mu.RLock()
	rm := r.manifests[collection]
	r.mu.RUnlock()
	if rm != nil && rm.version >= version {
		return rm, nil
	}
	m, err := LoadManifest(r.store, collection)
	if err != nil {
		return nil, err
	}
	schema, err := m.Schema.ToSchema()
	if err != nil {
		return nil, err
	}
	rm = &readerManifest{version: m.Version, man: m, schema: schema, deleted: m.TombstonesToMap(), visible: map[string]*bitset.Bitset{}}
	r.mu.Lock()
	r.manifests[collection] = rm
	r.mu.Unlock()
	return rm, nil
}

// ErrReaderDown marks liveness failures; the cluster router fails over on
// this error and only this error (a bad request must not deregister
// healthy readers).
var ErrReaderDown = errors.New("cluster: reader down")

// RangeFilter is a serializable attribute constraint pushed down to the
// readers (the distributed form of attribute filtering, Sec. 4.1 + 5.3):
// each reader resolves it against its shard's sorted attribute columns.
type RangeFilter struct {
	Attr   string `json:"attr"`
	Lo, Hi int64
}

// SearchOwned answers a top-k query over the segments this reader owns
// under the given ring. version pins the manifest version the query must
// reflect (snapshot consistency across the fleet). rf, when non-nil, is an
// attribute constraint evaluated shard-locally.
func (r *Reader) SearchOwned(collection string, version int64, ring *Ring, query []float32, opts core.SearchOptions, rf ...*RangeFilter) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return r.SearchOwnedCtx(context.Background(), collection, version, ring, query, opts, rf...)
}

// SearchOwnedCtx is SearchOwned with cancellation: the shard scan checks
// ctx before loading each owned segment, so a cancelled or timed-out
// distributed query stops pulling segments from shared storage. The range
// filter and the manifest's tombstones reach each segment as one bitset over
// build positions — the segment's visibility bits, with the filter compiled
// over them by core.Segment.SearchFiltered, the collection's own
// per-segment filtered search — pushed beneath its index or scan.
func (r *Reader) SearchOwnedCtx(ctx context.Context, collection string, version int64, ring *Ring, query []float32, opts core.SearchOptions, rf ...*RangeFilter) ([]topk.Result, error) {
	r.mu.RLock()
	alive := r.alive
	pool := r.pool
	r.mu.RUnlock()
	if !alive {
		return nil, fmt.Errorf("%w: reader %s", ErrReaderDown, r.ID)
	}
	r.searches.Inc()
	rm, err := r.refreshManifest(collection, version)
	if err != nil {
		return nil, err
	}
	field := 0
	if opts.Field != "" {
		if field, err = rm.schema.VectorFieldIndex(opts.Field); err != nil {
			return nil, err
		}
	}
	// Request errors, never ErrReaderDown: a bad K or query must not cost
	// the ring a healthy reader, and must not reach the heap or a kernel,
	// which panic on them.
	if opts.K <= 0 {
		return nil, fmt.Errorf("cluster: K must be positive, got %d", opts.K)
	}
	if err := rm.schema.CheckVector(field, query); err != nil {
		return nil, err
	}
	var pred colstore.Pred
	if len(rf) > 0 && rf[0] != nil {
		attr, err := rm.schema.AttrFieldIndex(rf[0].Attr)
		if err != nil {
			return nil, err
		}
		pred = colstore.RangePred{Attr: attr, Lo: rf[0].Lo, Hi: rf[0].Hi}
	}
	sp := opts.Params()
	h := topk.GetHeap(opts.K)
	defer topk.PutHeap(h)
	for _, segKey := range rm.man.SegmentKeys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if ring.Lookup(segKey) != r.ID {
			continue
		}
		v, err := pool.Get(collection + "\x00" + segKey)
		if err != nil {
			return nil, err
		}
		seg := v.(*core.Segment)
		sp.Bits = rm.visibility(segKey, seg)
		if pred == nil {
			err = seg.SearchInto(h, &rm.schema, field, query, sp)
		} else {
			_, _, err = seg.SearchFiltered(h, &rm.schema, field, query, pred, sp, false)
		}
		if err != nil {
			return nil, err
		}
	}
	return h.Results(), nil
}
