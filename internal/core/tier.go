package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/blockcache"
	"vectordb/internal/bufferpool"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
)

// Tiered segment storage: sealed segments move their vector (and column)
// payloads out of the Go heap into one mmap-backed extent file per segment,
// and scans pull blocks of at most 256 rows through the shared block cache
// instead of walking a resident slice — 0-aligned blocks of the segment's
// data extent, and for an externalized IVF payload blocks that start at
// each bucket's first row, so a miss copies only the bucket's bytes. A
// segment's vectors occupy one of three residency states:
//
//	hot    — plain RAM columns (growing segments, or tiering disabled).
//	         Everything behaves exactly as before.
//	mapped — the extent file is mmap'd; reads fault pages in lazily
//	         (kernel readahead), scans go block-by-block through the
//	         block cache.
//	cold   — the mapping is dropped and the local file removed; the
//	         extents live only in the segment's object in the store. The
//	         first touch promotes the segment back to mapped (fetch,
//	         verify, re-map), with retries against injected store faults.
//	         Promotion is single-flight per segment: concurrent readers
//	         serialize on the segment's mutex and all but the first find
//	         it mapped.
//
// Transitions: seal → mapped (seal Puts the segment's SEGX image to the
// store, then the same image is written locally and mapped, so demotion
// never needs a write); restore → mapped (the fetched image, likewise);
// mapped → cold when the collection's mapped-bytes budget forces the
// least-recently-used unpinned segment out, or on explicit DemoteAll;
// cold → mapped on first touch. GC destroys all three.

// promoteRetries bounds how many times a promotion re-attempts the store
// fetch. Injected-fault stores fail a draw per op; the promotion path must
// ride through bursts without surfacing errors to queries.
const promoteRetries = 12

// tierOwnerSeq allocates process-unique block-cache owner IDs, so segments
// of different collections sharing one cache can never collide even when
// their segment IDs do.
var tierOwnerSeq atomic.Uint64

// collTier is a collection's tiering state: where extent files live, which
// cache serves blocks, the store holding every tier's cold copy (the
// collection's own: a data tier's copy is the segment object itself), and
// the mapped-bytes budget with its LRU bookkeeping.
type collTier struct {
	dir    string
	cache  *blockcache.Cache
	store  objstore.Store
	budget int64 // mapped-bytes ceiling; 0 = unlimited
	met    *colMetrics

	mu     sync.Mutex
	mapped int64
	clock  int64
	// segs is keyed by block-cache owner, not segment ID: a segment owns up
	// to one data tier plus one index-payload tier per vector field, each
	// with its own file, store key and cache namespace.
	segs map[uint64]*segTier
}

// registerBlockCacheMetrics registers a block cache's vectordb_blockcache_*
// series: the shared cache shape, the count of frames the cache had to
// allocate, which stays far below the miss count while evicted frames are
// being recycled, and the block bytes its misses copied in.
func registerBlockCacheMetrics(reg *obs.Registry, cache *blockcache.Cache, labels ...string) {
	reg.RegisterCacheMetrics("vectordb_blockcache", func() obs.CacheStats {
		st := cache.Stats()
		return obs.CacheStats{
			Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
			Bytes: st.Bytes, Entries: st.Entries, Detail: true,
		}
	}, labels...)
	reg.CounterFunc("vectordb_blockcache_frame_allocs_total",
		func() int64 { return cache.Stats().FrameAllocs }, labels...)
	reg.CounterFunc("vectordb_blockcache_fill_bytes_total",
		func() int64 { return cache.Stats().FillBytes }, labels...)
}

// register adds a freshly sealed (mapped) extent file to the tier's books
// and enforces the mapped budget.
func (ct *collTier) register(t *segTier, mappedBytes int64) {
	ct.mu.Lock()
	ct.segs[t.owner] = t
	ct.clock++
	t.tick.Store(ct.clock)
	ct.mapped += mappedBytes
	ct.mu.Unlock()
	ct.enforceBudget()
}

// touch records a use of t for LRU ordering; when the touch promoted the
// segment, the mapped total grows and the budget is enforced.
func (ct *collTier) touch(t *segTier, promotedBytes int64) {
	ct.mu.Lock()
	ct.clock++
	t.tick.Store(ct.clock)
	ct.mapped += promotedBytes
	ct.mu.Unlock()
	if promotedBytes > 0 {
		ct.enforceBudget()
	}
}

// unregister removes a destroyed segment, returning bytes freed by its
// mapping (already subtracted by the caller via demote accounting).
func (ct *collTier) unregister(t *segTier, freed int64) {
	ct.mu.Lock()
	delete(ct.segs, t.owner)
	ct.mapped -= freed
	ct.mu.Unlock()
}

// enforceBudget demotes least-recently-used unpinned mapped segments until
// the mapped total fits the budget. Candidates are snapshotted under ct.mu
// but demoted outside it (segment mutexes order after nothing).
func (ct *collTier) enforceBudget() {
	if ct.budget <= 0 {
		return
	}
	for {
		ct.mu.Lock()
		if ct.mapped <= ct.budget {
			ct.mu.Unlock()
			return
		}
		var victim *segTier
		var victimTick int64
		for _, t := range ct.segs {
			if !t.isMapped() {
				continue
			}
			if tk := t.tick.Load(); victim == nil || tk < victimTick {
				victim, victimTick = t, tk
			}
		}
		ct.mu.Unlock()
		if victim == nil {
			return // nothing mapped (or everything pinned)
		}
		freed := victim.demote()
		if freed == 0 {
			// Pinned or raced to cold; try again later rather than spinning.
			return
		}
		ct.mu.Lock()
		ct.mapped -= freed
		ct.mu.Unlock()
	}
}

// demoteAll force-demotes every unpinned mapped segment (tests, shutdown
// pressure). Returns how many segments went cold.
func (ct *collTier) demoteAll() int {
	ct.mu.Lock()
	candidates := make([]*segTier, 0, len(ct.segs))
	for _, t := range ct.segs {
		candidates = append(candidates, t)
	}
	ct.mu.Unlock()
	n := 0
	for _, t := range candidates {
		if freed := t.demote(); freed > 0 {
			n++
			ct.mu.Lock()
			ct.mapped -= freed
			ct.mu.Unlock()
		}
	}
	return n
}

// segTier is one sealed segment's residency state machine. mf == nil means
// cold; mf != nil means mapped. pins counts live readers of the mapping —
// a pinned segment never demotes, so extent views handed to scans stay
// valid for exactly as long as the scan holds its pin.
type segTier struct {
	ct    *collTier
	segID int64
	owner uint64 // block-cache namespace
	path  string // local extent file
	key   string // cold copy's store key
	tick  atomic.Int64

	mu   sync.Mutex
	mf   *colstore.MappedFile
	pins int
	gone bool // destroyed by GC; acquire must fail
}

func (t *segTier) isMapped() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mf != nil
}

// acquire pins the segment's mapping, promoting from the store when
// cold. Every acquire must be paired with exactly one release call.
func (t *segTier) acquire() (*colstore.MappedFile, func(), error) {
	t.mu.Lock()
	if t.gone {
		t.mu.Unlock()
		return nil, nil, fmt.Errorf("core: segment %d storage destroyed", t.segID)
	}
	promoted := int64(0)
	if t.mf == nil {
		mf, err := t.promoteLocked()
		if err != nil {
			t.mu.Unlock()
			return nil, nil, err
		}
		t.mf = mf
		promoted = int64(mf.Size())
	}
	t.pins++
	mf := t.mf
	t.mu.Unlock()
	t.ct.touch(t, promoted)
	release := func() {
		t.mu.Lock()
		t.pins--
		t.mu.Unlock()
	}
	return mf, release, nil
}

// promoteLocked maps the segment's extent file, fetching it from the store
// when the local copy is gone. Caller holds t.mu. The fetched image
// is checksum-verified while its pages are still hot, then written back to
// local disk so a re-map after restart skips the fetch.
func (t *segTier) promoteLocked() (*colstore.MappedFile, error) {
	if mf, err := colstore.OpenSegmentFile(t.path); err == nil {
		t.ct.met.tierPromotes.Inc()
		return mf, nil
	}
	var lastErr error
	for attempt := 0; attempt < promoteRetries; attempt++ {
		if attempt > 0 {
			t.ct.met.tierPromoteRetries.Inc()
			time.Sleep(time.Duration(attempt) * time.Millisecond)
		}
		blob, err := t.ct.store.Get(t.key)
		if err != nil {
			lastErr = err
			continue
		}
		if _, err := colstore.DecodeSegmentFile(blob); err != nil {
			lastErr = err
			continue
		}
		if err := colstore.WriteFileAtomic(t.path, blob); err != nil {
			lastErr = err
			continue
		}
		mf, err := colstore.OpenSegmentFile(t.path)
		if err != nil {
			lastErr = err
			continue
		}
		if err := mf.VerifyChecksums(); err != nil {
			mf.Close()
			_ = os.Remove(t.path)
			lastErr = err
			continue
		}
		t.ct.met.tierPromotes.Inc()
		return mf, nil
	}
	t.ct.met.tierPromoteErrs.Inc()
	return nil, fmt.Errorf("core: promote segment %d from store: %w", t.segID, lastErr)
}

// demote drops the mapping and the local file, leaving the store copy as
// the segment's only storage. Cached blocks stay valid — they are copies —
// so a recently scanned cold segment still answers from cache. Returns the
// mapped bytes freed, or 0 when the segment is pinned or already cold.
func (t *segTier) demote() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mf == nil || t.pins > 0 || t.gone {
		return 0
	}
	freed := int64(t.mf.Size())
	_ = t.mf.Close()
	t.mf = nil
	_ = os.Remove(t.path)
	t.ct.met.tierDemotes.Inc()
	return freed
}

// destroy releases everything on segment GC: mapping, local file, cached
// blocks, store copy. Safe while readers still hold pins — the mapping
// closes only when unpinned; a pinned mapping is abandoned to its pin
// holders (their release is the last reference) and the file goes away
// underneath it, which mmap semantics allow.
func (t *segTier) destroy() {
	t.mu.Lock()
	t.gone = true
	freed := int64(0)
	if t.mf != nil && t.pins == 0 {
		freed = int64(t.mf.Size())
		_ = t.mf.Close()
		t.mf = nil
	}
	t.mu.Unlock()
	_ = os.Remove(t.path)
	t.ct.cache.Drop(t.owner)
	_ = t.ct.store.Delete(t.key)
	t.ct.unregister(t, freed)
}

// tierExtID packs an extent identity (kind, field) into the block-cache
// key's Ext discriminator.
func tierExtID(kind, field uint32) uint32 { return kind<<16 | (field & 0xffff) }

// tierSegment makes img — seg's stored object, as seal just Put it or
// restore just fetched it — the segment's local extent file: it writes the
// image under the tier directory, maps it, installs the residency state
// machine, and drops the vector payloads from RAM. The object in the store
// is the cold copy, so nothing is encoded or uploaded here. Attribute and
// categorical columns stay hot — they are small and serve pushdown filters
// and point lookups. No-op when tiering is off or the segment is empty.
func (c *Collection) tierSegment(seg *Segment, img []byte) error {
	ct := c.tier
	if ct == nil || seg.Rows() == 0 || seg.tier != nil {
		return nil
	}
	t := &segTier{
		ct:    ct,
		segID: seg.ID,
		owner: tierOwnerSeq.Add(1),
		path:  filepath.Join(ct.dir, fmt.Sprintf("seg-%d.segx", seg.ID)),
		key:   c.segmentKey(seg.ID),
	}
	if err := colstore.WriteFileAtomic(t.path, img); err != nil {
		return fmt.Errorf("core: tier segment %d: %w", seg.ID, err)
	}
	mf, err := colstore.OpenSegmentFile(t.path)
	if err != nil {
		_ = os.Remove(t.path)
		return fmt.Errorf("core: map segment %d: %w", seg.ID, err)
	}
	// The size is read, and the mapping installed under t.mu, before seg.tier
	// publishes t: from then on a concurrent demote or destroy may close mf.
	size := int64(mf.Size())
	t.mu.Lock()
	t.mf = mf
	t.mu.Unlock()
	seg.tier = t
	// Drop the RAM payloads: every later read goes through the accessors.
	for f := range seg.Vectors {
		seg.Vectors[f] = &colstore.VectorColumn{Dim: seg.Vectors[f].Dim}
	}
	ct.register(t, size)
	c.met.tierSealed.Inc()
	return nil
}

// tierByteSource serves rows [base, base+n) of one extent of a mapped
// segment as an index.ByteBlockSource: block [i0, i1) is extent rows
// [base+i0, base+i1), faulted once into the block cache under exactly that
// run (copied out of the mapping into a cache-owned frame, so the view is
// stable after the mapping unpins) and pinned only while the scan is inside
// it: the view dies at the next Block, Bucket or Release, after which the
// frame may hold another block. A data extent's source covers the whole
// extent, so its blocks are 0-aligned; an IVF payload's source moves from
// bucket to bucket (Bucket), so its blocks start at each bucket's first
// row. The source holds the segment's mapping pinned for its whole
// lifetime — demotion cannot invalidate a running scan.
type tierByteSource struct {
	t       *segTier
	relMap  func()
	ext     *colstore.Extent
	rb      int // bytes per row
	extID   uint32
	base, n int // the extent rows served
	pin     blockcache.Pin
}

func (s *tierByteSource) Rows() int     { return s.n }
func (s *tierByteSource) RowBytes() int { return s.rb }

// Bucket points the source at extent rows [start, start+n) (ivf.ByteRows).
func (s *tierByteSource) Bucket(start, n int) {
	s.pin.Release()
	s.pin = blockcache.Pin{}
	s.base, s.n = start, n
}

func (s *tierByteSource) Block(i0, i1 int) []byte {
	s.pin.Release() // previous view is invalidated by contract
	s.pin = blockcache.Pin{}
	r0, r1 := s.base+i0, s.base+i1
	k := blockcache.Key{Owner: s.t.owner, Ext: s.extID, Row: uint32(r0), Rows: uint32(r1 - r0)}
	pin, err := s.t.ct.cache.GetOrLoad(k, (r1-r0)*s.rb, func(dst []byte) error {
		copy(dst, s.ext.Payload[r0*s.rb:r1*s.rb])
		return nil
	})
	if err != nil {
		// Unreachable: the loader copies from a pinned mapping and cannot
		// fail. Return an empty view rather than a torn one.
		return nil
	}
	s.pin = pin
	return pin.Bytes()
}

func (s *tierByteSource) Release() {
	s.pin.Release()
	s.pin = blockcache.Pin{}
	s.relMap()
}

// tierVecSource is a tierByteSource over float rows, served as an
// index.BlockSource: a cached block is viewed as floats in place, or
// decoded into pooled scratch when its bytes cannot alias floats.
type tierVecSource struct {
	tierByteSource
	scratch *[]float32
}

func (s *tierVecSource) Dim() int { return s.rb / 4 }

func (s *tierVecSource) Block(i0, i1 int) []float32 {
	b := s.tierByteSource.Block(i0, i1)
	if v, ok := colstore.ViewFloats(b); ok {
		return v
	}
	if s.scratch == nil {
		sp := bufferpool.GetFloats(index.ScanBlockRows * s.Dim())
		s.scratch = sp // escapes to the source; Release returns it
	}
	out := (*s.scratch)[:len(b)/4]
	colstore.DecodeFloats(out, b)
	return out
}

func (s *tierVecSource) Release() {
	if s.scratch != nil {
		bufferpool.PutFloats(s.scratch)
		s.scratch = nil
	}
	s.tierByteSource.Release()
}

// extent pins t's mapping and finds extent (kind, field) in it. The caller
// calls release when done with the extent; on error nothing stays pinned.
func (t *segTier) extent(kind, field uint32) (ext *colstore.Extent, release func(), err error) {
	mf, rel, err := t.acquire()
	if err != nil {
		return nil, nil, err
	}
	if ext = mf.Find(kind, field); ext == nil {
		rel()
		return nil, nil, fmt.Errorf("core: segment %d extent file lacks extent kind %d for field %d", t.segID, kind, field)
	}
	return ext, rel, nil
}

// open serves extent (kind, field) — all of its rows until a Bucket call —
// as cached blocks of width×Dim bytes per row: width 4 for float rows, 1
// for SQ8 code bytes.
func (t *segTier) open(kind, field uint32, width int) (tierByteSource, error) {
	ext, rel, err := t.extent(kind, field)
	if err != nil {
		return tierByteSource{}, err
	}
	return tierByteSource{t: t, relMap: rel, ext: ext, rb: width * int(ext.Dim), extID: tierExtID(kind, field), n: int(ext.Rows)}, nil
}

// vectorSource returns the BlockSource backing field f's blocked scan. Hot
// segments return the resident slice (ScanBlockedSource detects it and
// delegates to the zero-overhead contiguous path); tiered segments return
// a cache-backed source over the mapping, promoting cold segments on first
// touch. The caller owns the source and must Release it on all paths.
func (s *Segment) vectorSource(f int) (index.BlockSource, error) {
	if s.tier == nil {
		col := s.Vectors[f]
		return index.SliceSource{Data: col.Data, D: col.Dim}, nil
	}
	src, err := s.tier.open(colstore.ExtentVectors, uint32(f), 4)
	if err != nil {
		return nil, err
	}
	return &tierVecSource{tierByteSource: src}, nil
}

// vectorData returns field f's full contiguous column and a release that
// must be called when done. Hot segments hand out the resident slice;
// tiered segments pin the mapping and return the extent view (the mapping
// demand-pages, so only the bytes actually read are faulted in). Used by
// index builds and the batched tile sweep, which want long contiguous
// runs rather than cache-block granularity.
func (s *Segment) vectorData(f int) ([]float32, func(), error) {
	if s.tier == nil {
		return s.Vectors[f].Data, func() {}, nil
	}
	ext, rel, err := s.tier.extent(colstore.ExtentVectors, uint32(f))
	if err != nil {
		return nil, nil, err
	}
	return ext.Floats(), rel, nil
}

// vectorRows returns a row accessor for field f plus its release. The
// returned views are valid until release.
func (s *Segment) vectorRows(f int) (func(r int) []float32, func(), error) {
	if s.tier == nil {
		col := s.Vectors[f]
		return col.Row, func() {}, nil
	}
	data, rel, err := s.vectorData(f)
	if err != nil {
		return nil, nil, err
	}
	dim := s.Vectors[f].Dim
	return func(r int) []float32 { return data[r*dim : (r+1)*dim] }, rel, nil
}

// tierIVFExt serves an externalized IVF index's build-order fine payload
// from its own extent file behind the tier: ivf.PayloadExt backed by the
// same residency state machine (and cache) as segment data. One opened
// source serves a probe sweep, bucket by bucket, from one pin of the
// mapping.
type tierIVFExt struct {
	t     *segTier
	field uint32
}

func (p *tierIVFExt) OpenFloats() (ivf.FloatRows, error) {
	src, err := p.t.open(colstore.ExtentIVFVecs, p.field, 4)
	if err != nil {
		return nil, err
	}
	return &tierVecSource{tierByteSource: src}, nil
}

func (p *tierIVFExt) OpenBytes() (ivf.ByteRows, error) {
	src, err := p.t.open(colstore.ExtentIVFCodes, p.field, 1)
	if err != nil {
		return nil, err
	}
	return &src, nil
}

// idxTiers snapshots the segment's index-payload tiers (GC destroy loop).
func (s *Segment) idxTiers() []*segTier {
	s.tierIdxMu.Lock()
	defer s.tierIdxMu.Unlock()
	out := make([]*segTier, 0, len(s.tierIdx))
	for _, t := range s.tierIdx {
		out = append(out, t)
	}
	return out
}

// tierIndexPayload moves a freshly built and persisted IVF index's fine
// payload (FLAT vectors or SQ8 codes, the dominant index memory) into its
// own build-order extent file behind the tier, then swaps in an
// externalized copy of the index so bucket scans pull cache blocks instead
// of resident slices. In-flight queries keep the resident index they
// already hold. Failures are non-fatal: the resident index keeps serving.
func (c *Collection) tierIndexPayload(seg *Segment, field int) {
	ct := c.tier
	if ct == nil || seg.tier == nil {
		return
	}
	idx := seg.Index(field)
	base := idx
	if u, ok := idx.(interface{ Unwrap() index.Index }); ok {
		base = u.Unwrap()
	}
	iv, ok := base.(*ivf.IVF)
	if !ok || !iv.Externalizable() || iv.Externalized() {
		return
	}
	floats, codes, ok := iv.ResidentPayload()
	if !ok {
		return
	}
	rows := uint64(iv.Size())
	var ext colstore.Extent
	if floats != nil {
		ext = colstore.Extent{
			Kind: colstore.ExtentIVFVecs, Field: uint32(field),
			Rows: rows, Dim: uint32(iv.Dim()),
			Payload: colstore.FloatsToBytes(floats),
		}
	} else {
		ext = colstore.Extent{
			Kind: colstore.ExtentIVFCodes, Field: uint32(field),
			Rows: rows, Dim: uint32(iv.CodeBytesPerVector()),
			Payload: codes,
		}
	}
	buf, err := colstore.EncodeSegmentFile(seg.ID, []colstore.Extent{ext})
	if err != nil {
		return
	}
	// The file name and store key carry the cache owner: a manual rebuild of
	// an already-externalized field creates a fresh tier for the same
	// (segment, field), and destroying the replaced tier must not take the
	// replacement's file or store object with it.
	owner := tierOwnerSeq.Add(1)
	t := &segTier{
		ct:    ct,
		segID: seg.ID,
		owner: owner,
		path:  filepath.Join(ct.dir, fmt.Sprintf("seg-%d-f%d-o%d.ivfx", seg.ID, field, owner)),
		key:   fmt.Sprintf("col/%s/ivfext/%d/%d/%d", c.Name, seg.ID, field, owner),
	}
	if err := colstore.WriteFileAtomic(t.path, buf); err != nil {
		return
	}
	var putErr error
	for attempt := 0; attempt < 3; attempt++ {
		if putErr = ct.store.Put(t.key, buf); putErr == nil {
			break
		}
	}
	if putErr != nil {
		_ = os.Remove(t.path)
		return
	}
	mf, err := colstore.OpenSegmentFile(t.path)
	if err != nil {
		_ = os.Remove(t.path)
		_ = ct.store.Delete(t.key)
		return
	}
	y, err := iv.Externalize(&tierIVFExt{t: t, field: uint32(field)})
	if err != nil {
		_ = mf.Close()
		_ = os.Remove(t.path)
		_ = ct.store.Delete(t.key)
		return
	}
	size := int64(mf.Size()) // before seg.tierIdx publishes t, as in tierSegment
	t.mu.Lock()
	t.mf = mf
	t.mu.Unlock()
	// Couple the index swap with the tier bookkeeping: concurrent rebuilds
	// of the same field (manual BuildIndex racing the async builder, or two
	// manual builds) must never leave the live index pointing at a destroyed
	// payload tier. Under tierIdxMu the swap lands only if the index we
	// externalized is still the installed one; a stale externalization
	// abandons its storage and leaves the winner's intact.
	seg.tierIdxMu.Lock()
	if seg.Index(field) != idx {
		seg.tierIdxMu.Unlock()
		_ = mf.Close()
		_ = os.Remove(t.path)
		_ = ct.store.Delete(t.key)
		return
	}
	seg.SetIndex(field, c.met.idx.Instrument(y))
	if seg.tierIdx == nil {
		seg.tierIdx = make(map[int]*segTier)
	}
	old := seg.tierIdx[field]
	seg.tierIdx[field] = t
	seg.tierIdxMu.Unlock()
	if old != nil {
		old.destroy()
	}
	ct.register(t, size)
	c.met.tierIdxSealed.Inc()
	// The async builder races segment GC exactly like persistIndex: if the
	// segment died while we were externalizing, the GC destroy loop may have
	// run before our setIdxTier — release the storage ourselves (destroy is
	// idempotent, so both running is harmless).
	if !c.snaps.segmentLive(seg.ID) {
		t.destroy()
	}
}

// Tiered reports whether this segment's vectors live out of core.
func (s *Segment) Tiered() bool { return s.tier != nil }

// Mapped reports the segment's residency: (true, true) mapped, (false,
// true) cold, (_, false) hot / untiered.
func (s *Segment) Mapped() (mapped, tiered bool) {
	if s.tier == nil {
		return false, false
	}
	return s.tier.isMapped(), true
}

// DemoteSegments force-demotes every unpinned mapped segment to cold
// (tests and memory-pressure hooks). Returns how many segments demoted.
func (c *Collection) DemoteSegments() int {
	if c.tier == nil {
		return 0
	}
	return c.tier.demoteAll()
}

// TierStats summarizes the collection's tiered storage. Counts are of
// tier-managed extent files: each tiered segment contributes one data file
// plus one per externalized IVF index payload.
type TierStats struct {
	Tiered      int   // extent files under tier management
	MappedSegs  int   // currently mmap'd
	MappedBytes int64 // summed mapped file sizes
}

// TierStats returns current tiering state (zero when tiering is off).
func (c *Collection) TierStats() TierStats {
	ct := c.tier
	if ct == nil {
		return TierStats{}
	}
	ct.mu.Lock()
	segs := make([]*segTier, 0, len(ct.segs))
	for _, t := range ct.segs {
		segs = append(segs, t)
	}
	st := TierStats{Tiered: len(ct.segs), MappedBytes: ct.mapped}
	ct.mu.Unlock()
	for _, t := range segs {
		if t.isMapped() {
			st.MappedSegs++
		}
	}
	return st
}
