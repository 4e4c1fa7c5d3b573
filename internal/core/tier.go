package core

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/objstore"
)

// Tiered segment storage: sealed segments move their vector (and column)
// payloads out of the Go heap into one mmap-backed extent file per segment,
// and scans read the mapped bytes in place: a scan pins the mapping, runs
// the resident scan body over the extent's slice (a whole data extent, or
// one probed bucket's rows of an externalized IVF payload), and unpins it.
// Nothing is copied, and no view outlives its pin — a demoted mapping is
// gone, so a read after the release would fault. A segment's vectors
// occupy one of three residency states:
//
//	hot    — plain RAM columns (growing segments, or tiering disabled).
//	         Everything behaves exactly as before.
//	mapped — the extent file is mmap'd; reads fault pages in lazily
//	         (kernel readahead) and stay in the page cache, which the
//	         mapped-bytes budget bounds segment by segment.
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

// tierSeq allocates process-unique tier IDs: a segment's index-payload
// tiers are named by them, so a rebuilt payload never shares a file or a
// store key with the one it replaces.
var tierSeq atomic.Uint64

// collTier is a collection's tiering state: where extent files live, the
// store holding every tier's cold copy (the collection's own: a data tier's
// copy is the segment object itself), and the mapped-bytes budget with its
// LRU bookkeeping — the one bound on how much of the tier is resident.
type collTier struct {
	dir    string
	store  objstore.Store
	budget int64 // mapped-bytes ceiling; 0 = unlimited
	met    *colMetrics

	mu     sync.Mutex
	mapped int64
	clock  int64
	// segs is keyed by tier ID, not segment ID: a segment owns one data
	// tier plus, per vector field, the index-payload tier of each live
	// version, each with its own file and store key.
	segs map[uint64]*segTier
}

// register adds a freshly sealed (mapped) extent file to the tier's books
// and enforces the mapped budget.
func (ct *collTier) register(t *segTier, mappedBytes int64) {
	ct.mu.Lock()
	ct.segs[t.id] = t
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

// unregister removes a destroyed segment from the books, taking off the
// bytes its mapping freed (0 while pinned: the last release unmaps it and
// takes them off then).
func (ct *collTier) unregister(t *segTier, freed int64) {
	ct.mu.Lock()
	delete(ct.segs, t.id)
	ct.mapped -= freed
	ct.mu.Unlock()
}

// unmapped takes bytes a closed mapping freed off the mapped total.
func (ct *collTier) unmapped(freed int64) {
	ct.mu.Lock()
	ct.mapped -= freed
	ct.mu.Unlock()
}

// evict demotes t, reporting whether it went cold (false when pinned or
// already cold).
func (ct *collTier) evict(t *segTier) bool {
	freed := t.demote()
	if freed > 0 {
		ct.unmapped(freed)
	}
	return freed > 0
}

// enforceBudget demotes mapped segments in least-recently-used order until
// the mapped total fits the budget, passing over pinned ones: a pinned
// segment cannot demote, and the next one in LRU order goes in its place.
// The LRU order is snapshotted under ct.mu but demoted outside it
// (segment mutexes order after nothing).
func (ct *collTier) enforceBudget() {
	if ct.budget <= 0 {
		return
	}
	type lruEntry struct {
		t    *segTier
		tick int64
	}
	ct.mu.Lock()
	if ct.mapped <= ct.budget {
		ct.mu.Unlock()
		return
	}
	lru := make([]lruEntry, 0, len(ct.segs))
	for _, t := range ct.segs {
		lru = append(lru, lruEntry{t, t.tick.Load()})
	}
	ct.mu.Unlock()
	slices.SortFunc(lru, func(a, b lruEntry) int { return cmp.Compare(a.tick, b.tick) })
	for _, e := range lru {
		ct.mu.Lock()
		over := ct.mapped > ct.budget
		ct.mu.Unlock()
		if !over {
			return
		}
		ct.evict(e.t)
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
		if ct.evict(t) {
			n++
		}
	}
	return n
}

// segTier is one sealed segment's residency state machine. mf == nil means
// cold; mf != nil means mapped. pins counts live readers of the mapping —
// a pinned segment never demotes or unmaps, so extent views handed to scans
// stay valid for exactly as long as the scan holds its pin.
type segTier struct {
	ct    *collTier
	segID int64
	id    uint64 // process-unique tier ID
	path  string // local extent file
	key   string // cold copy's store key
	tick  atomic.Int64

	mu   sync.Mutex
	mf   *colstore.MappedFile
	pins int
	gone bool // destroyed by GC; acquire must fail, the last release unmaps

	// demoted, when set, runs after each demote: a segment's vector tier
	// drops the segment's heap code copies with it.
	demoted func()
}

func (t *segTier) isMapped() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mf != nil
}

// acquire pins the segment's mapping, promoting from the store when
// cold. Every acquire must be paired with exactly one call of the returned
// release, after the caller's last read of the mapping.
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
	return mf, t.release, nil
}

// release drops one pin. The last pin of a destroyed tier closes the
// mapping destroy had to leave open and takes its bytes off the mapped
// total. The last pin of a live tier re-enforces the budget: enforcement
// passes over pinned tiers, so concurrent scans can hold the collection
// over its budget until they let go.
func (t *segTier) release() {
	t.mu.Lock()
	t.pins--
	last := t.pins == 0
	freed := int64(0)
	if last && t.gone && t.mf != nil {
		freed = t.unmapLocked()
	}
	t.mu.Unlock()
	if freed > 0 {
		t.ct.unmapped(freed)
	}
	if last {
		t.ct.enforceBudget()
	}
}

// unmapLocked closes the mapping and returns its size. Caller holds t.mu
// and has checked mf != nil and pins == 0.
func (t *segTier) unmapLocked() int64 {
	freed := int64(t.mf.Size())
	_ = t.mf.Close()
	t.mf = nil
	return freed
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
// the segment's only storage. Returns the mapped bytes freed, or 0 when
// the segment is pinned or already cold.
func (t *segTier) demote() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mf == nil || t.pins > 0 || t.gone {
		return 0
	}
	freed := t.unmapLocked()
	_ = os.Remove(t.path)
	t.ct.met.tierDemotes.Inc()
	if t.demoted != nil {
		t.demoted()
	}
	return freed
}

// destroy releases everything on segment GC: mapping, local file, store
// copy. Safe while readers still hold pins — the mapping closes only when
// unpinned; a pinned mapping is left to its pin holders, the last release
// closes it, and the file goes away underneath it, which mmap semantics
// allow.
func (t *segTier) destroy() {
	t.mu.Lock()
	t.gone = true
	freed := int64(0)
	if t.mf != nil && t.pins == 0 {
		freed = t.unmapLocked()
	}
	t.mu.Unlock()
	_ = os.Remove(t.path)
	_ = t.ct.store.Delete(t.key)
	t.ct.unregister(t, freed)
}

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
	t, err := ct.mapImage(tierSeq.Add(1), seg.ID, filepath.Join(ct.dir, fmt.Sprintf("seg-%d.segx", seg.ID)), c.segmentKey(seg.ID), img)
	if err != nil {
		return err
	}
	t.mu.Lock() // the budget may already demote t
	t.demoted = seg.dropCodes
	t.mu.Unlock()
	seg.tier = t
	// Drop the RAM payloads: every later read goes through the accessors.
	for f := range seg.Vectors {
		seg.Vectors[f] = &colstore.VectorColumn{Dim: seg.Vectors[f].Dim}
	}
	c.met.tierSealed.Inc()
	return nil
}

// mapImage makes img, whose cold copy is already under key in the store,
// the local extent file at path, maps it, and registers the mapped tier.
func (ct *collTier) mapImage(id uint64, segID int64, path, key string, img []byte) (*segTier, error) {
	t := &segTier{ct: ct, segID: segID, id: id, path: path, key: key}
	if err := colstore.WriteFileAtomic(t.path, img); err != nil {
		return nil, fmt.Errorf("core: tier segment %d: %w", segID, err)
	}
	mf, err := colstore.OpenSegmentFile(t.path)
	if err != nil {
		_ = os.Remove(t.path)
		return nil, fmt.Errorf("core: map segment %d: %w", segID, err)
	}
	// The size is read, and the mapping installed under t.mu, before
	// register publishes t: from then on a demote or destroy may close mf.
	size := int64(mf.Size())
	t.mu.Lock()
	t.mf = mf
	t.mu.Unlock()
	ct.register(t, size)
	return t, nil
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

// vectorData returns field f's full contiguous column and a release that
// must be called after the last read of it. Hot segments hand out the
// resident slice; tiered segments pin the mapping (promoting a cold
// segment on first touch) and return the extent view in place — the
// mapping demand-pages, so only the bytes a read touches are faulted in.
// Every read of a segment's vectors goes through here: scans, index
// builds, the batched tile sweep and, via vectorRows, point reads.
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
// same residency state machine as segment data. Each open pins the
// mapping for one probe sweep and hands out the extent's bytes in place.
type tierIVFExt struct {
	t     *segTier
	field uint32
}

func (p *tierIVFExt) OpenFloats() ([]float32, func(), error) {
	ext, rel, err := p.t.extent(colstore.ExtentIVFVecs, p.field)
	if err != nil {
		return nil, nil, err
	}
	return ext.Floats(), rel, nil
}

func (p *tierIVFExt) OpenBytes() ([]byte, func(), error) {
	ext, rel, err := p.t.extent(colstore.ExtentIVFCodes, p.field)
	if err != nil {
		return nil, nil, err
	}
	return ext.Payload, rel, nil
}

// externalize moves a freshly built IVF index's fine payload (FLAT vectors
// or SQ8 codes, the dominant index memory) of a tiered segment into its own
// extent file behind the tier — the same bucket-ordered array, byte for
// byte — and returns an externalized copy of the index that reads the
// mapped payload, with the payload's tier. Any other index, and any
// failure, returns idx itself: the resident index serves.
func (c *Collection) externalize(seg *Segment, field int, idx index.Index) (index.Index, *segTier) {
	ct := c.tier
	iv, ok := idx.(*ivf.IVF)
	if ct == nil || seg.tier == nil || !ok || !iv.Externalizable() {
		return idx, nil
	}
	floats, codes, ok := iv.ResidentPayload()
	if !ok {
		return idx, nil
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
		return idx, nil
	}
	// The file name and store key carry the tier ID: a rebuild of an
	// already-externalized field creates a fresh tier for the same
	// (segment, field), and destroying the replaced tier must not take the
	// replacement's file or store object with it.
	id := tierSeq.Add(1)
	path := filepath.Join(ct.dir, fmt.Sprintf("seg-%d-f%d-o%d.ivfx", seg.ID, field, id))
	key := fmt.Sprintf("col/%s/ivfext/%d/%d/%d", c.Name, seg.ID, field, id)
	for attempt := 0; attempt < 3; attempt++ {
		if err = ct.store.Put(key, buf); err == nil {
			break
		}
	}
	if err != nil {
		return idx, nil
	}
	t, err := ct.mapImage(id, seg.ID, path, key, buf)
	if err != nil {
		_ = ct.store.Delete(key)
		return idx, nil
	}
	y, err := iv.Externalize(&tierIVFExt{t: t, field: uint32(field)})
	if err != nil {
		t.destroy()
		return idx, nil
	}
	c.met.tierIdxSealed.Inc()
	return y, t
}

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
