package core

import (
	"maps"
	"sync"

	"vectordb/internal/bitset"
)

// Snapshot is a consistent, immutable view of a collection (Sec. 5.2): the
// set of latest segments at some instant plus the tombstones not yet
// compacted away. Every query works on the snapshot current when it starts;
// later flushes, merges and index builds produce new snapshots and never
// interfere with ongoing queries. An index build replaces its segment with
// a new version and shares everything else, tombstones and visibility bits
// included: row positions do not change.
type Snapshot struct {
	ID       int64
	Segments []*Segment
	// Deleted holds sequence-scoped tombstones: Deleted[id] = seq means
	// "id is deleted from every segment whose ID ≤ seq". Scoping the
	// tombstone by segment sequence makes delete-then-reinsert (the
	// paper's update path, Sec. 2.3) correct: the re-inserted row lands in
	// a younger segment and stays visible while the old copy is hidden
	// until a merge physically removes it.
	Deleted map[int64]int64
	// visible[i] is Deleted resolved against Segments[i] when the snapshot
	// was built: a bitset over build positions with a clear bit for every
	// row a tombstone hides, nil when the segment hides nothing. It is what
	// every scan and index search of the snapshot takes as its filter (alone,
	// or ANDed into a compiled predicate), immutable and owned by the
	// snapshot, never pooled. hidden counts the clear bits of all of them.
	visible []*bitset.Bitset
	hidden  int
}

// newSnapshot builds a snapshot of segments under the tombstones carried
// forward from its predecessor (or a manifest) plus the newly added ones,
// resolving them in one pass: a tombstone that still hides a physical row
// clears that row's visibility bit, one that hides nothing any more is
// dropped.
func newSnapshot(id int64, segments []*Segment, carried map[int64]int64, added []tombstone) *Snapshot {
	deleted := make(map[int64]int64, len(carried)+len(added))
	maps.Copy(deleted, carried)
	for _, t := range added {
		if cur, ok := deleted[t.id]; !ok || t.seq > cur {
			deleted[t.id] = t.seq
		}
	}
	sn := &Snapshot{ID: id, Segments: segments, Deleted: deleted, visible: make([]*bitset.Bitset, len(segments))}
	for tid, seq := range deleted {
		live := false
		for i, s := range segments {
			if s.hideRow(&sn.visible[i], tid, seq) {
				sn.hidden++
				live = true
			}
		}
		if !live {
			delete(deleted, tid)
		}
	}
	return sn
}

// holder returns the segment whose copy of row id the snapshot shows — the
// newest that holds it and whose visibility bits keep it — or nil.
func (sn *Snapshot) holder(id int64) *Segment {
	for i := len(sn.Segments) - 1; i >= 0; i-- {
		seg := sn.Segments[i]
		if p, ok := seg.posOf(id); ok && (sn.visible[i] == nil || sn.visible[i].Test(int(p))) {
			return seg
		}
	}
	return nil
}

// TotalRows counts physical rows (tombstoned rows included).
func (sn *Snapshot) TotalRows() int {
	n := 0
	for _, s := range sn.Segments {
		n += s.Rows()
	}
	return n
}

// LiveRows counts visible rows.
func (sn *Snapshot) LiveRows() int { return sn.TotalRows() - sn.hidden }

// snapTracker manages snapshot lifetimes and garbage collection: each
// snapshot is pinned by readers (Acquire/Release) and by being current; a
// segment is garbage once no live snapshot references it, and so is an
// externalized IVF payload tier once no live snapshot holds a version that
// serves it. A version in an installed snapshot never changes, so the
// counts a snapshot took at install are the ones its last release drops.
type snapTracker struct {
	mu       sync.Mutex
	refs     map[int64]int    // live snapshot ID → reference count
	segRefs  map[int64]int    // segment ID → number of live snapshots
	tierRefs map[*segTier]int // payload tier → number of live snapshots
	onSegGC  func(*Segment)   // invoked (outside locks) for each dead segment
	onTierGC func(*segTier)   // invoked (outside locks) for each dead payload tier
	current  *Snapshot
}

func newSnapTracker(onSegGC func(*Segment), onTierGC func(*segTier)) *snapTracker {
	return &snapTracker{
		refs:     map[int64]int{},
		segRefs:  map[int64]int{},
		tierRefs: map[*segTier]int{},
		onSegGC:  onSegGC,
		onTierGC: onTierGC,
	}
}

// install makes sn current, releasing the previous current snapshot.
func (t *snapTracker) install(sn *Snapshot) {
	t.mu.Lock()
	t.refs[sn.ID]++ // the "current" pin
	for _, seg := range sn.Segments {
		t.segRefs[seg.ID]++
		for _, pt := range seg.payloads {
			if pt != nil {
				t.tierRefs[pt]++
			}
		}
	}
	prev := t.current
	t.current = sn
	t.mu.Unlock()
	t.release(prev)
}

// acquire pins and returns the current snapshot.
func (t *snapTracker) acquire() *Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.current == nil {
		return nil
	}
	t.refs[t.current.ID]++
	return t.current
}

// release unpins a snapshot, garbage-collecting it (and any segments and
// payload tiers that became unreferenced) when the last pin drops.
func (t *snapTracker) release(sn *Snapshot) {
	if sn == nil {
		return
	}
	t.mu.Lock()
	dead, deadTiers := t.releaseLocked(sn)
	t.mu.Unlock()
	for _, seg := range dead {
		t.onSegGC(seg)
	}
	for _, pt := range deadTiers {
		t.onTierGC(pt)
	}
}

// releaseLocked drops one pin of sn. When it was the last, it returns the
// segments and the payload tiers no live snapshot can reach any more.
func (t *snapTracker) releaseLocked(sn *Snapshot) (dead []*Segment, deadTiers []*segTier) {
	t.refs[sn.ID]--
	if t.refs[sn.ID] > 0 {
		return nil, nil
	}
	delete(t.refs, sn.ID)
	for _, seg := range sn.Segments {
		t.segRefs[seg.ID]--
		if t.segRefs[seg.ID] == 0 {
			delete(t.segRefs, seg.ID)
			dead = append(dead, seg)
		}
		for _, pt := range seg.payloads {
			if pt == nil {
				continue
			}
			t.tierRefs[pt]--
			if t.tierRefs[pt] == 0 {
				delete(t.tierRefs, pt)
				deadTiers = append(deadTiers, pt)
			}
		}
	}
	return dead, deadTiers
}

// segmentLive reports whether a segment is still referenced by any live
// snapshot. The async index builder consults it so it does not burn CPU
// building indexes for merged-away segments.
func (t *snapTracker) segmentLive(id int64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.segRefs[id] > 0
}

// liveSnapshots reports how many snapshots are alive (tests, stats).
func (t *snapTracker) liveSnapshots() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.refs)
}

// liveSegments reports how many distinct segments are referenced.
func (t *snapTracker) liveSegments() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.segRefs)
}
