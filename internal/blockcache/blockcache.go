// Package blockcache is the capacity-bounded block cache behind
// out-of-core sealed-segment scans. Keys name the run of at most 256 rows
// of one extent of one owner (segment) that a scan reads; values are
// immutable byte blocks filled once via per-key singleflight and shared by
// every concurrent scan.
//
// Design points, in the order they matter for correctness:
//
//   - Pins. GetOrLoad returns a Pin holding a refcount on the entry; the
//     block's bytes are guaranteed stable and resident until Release. An
//     in-flight scan therefore never races eviction — eviction skips
//     pinned entries, going transiently over capacity if everything is
//     pinned rather than invalidating live views.
//   - Singleflight. A miss inserts a loading placeholder under the shard
//     lock; concurrent getters for the same key block on its ready
//     channel instead of issuing duplicate loads (one objstore fetch per
//     cold block no matter how many queries arrive at once).
//   - Sharding. Keys hash across shards, each with its own lock, map and
//     intrusive LRU list, so concurrent scans of different segments do
//     not serialize on one mutex. Hashing the extent stripe a block starts
//     in spreads blocks of unequal size evenly over the shard budgets.
//   - Frames. The cache owns block memory: a miss fills a frame taken from
//     the shard's free list (best fit) or allocates one of the block's
//     exact size, and a block's frame goes back to that list once its
//     entry is both unreachable (evicted, dropped, or its fill failed) and
//     unpinned. A view of a block is therefore valid only while its Pin is
//     held — after Release the same bytes may already hold another block.
//     The budget charges frame capacity, so resident plus free frames stay
//     within it plus one frame.
//
// The cache holds bytes, not typed slices: frames are float-backed, so
// loaders that want in-place float32 views get 4-byte alignment by
// construction.
package blockcache

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Key names one cached block. Owner is a caller-scoped namespace (segment
// ID), Ext distinguishes extents within the owner (kind/field packed by
// the caller), Row and Rows are the block's first row within the extent
// and its row count, so blocks of two alignments never alias.
type Key struct {
	Owner uint64
	Ext   uint32
	Row   uint32
	Rows  uint32
}

// stripeRows (index.ScanBlockRows) is the height of the extent stripes
// shardFor hashes: the blocks starting in one stripe hold 0–2 stripes' rows.
const stripeRows = 256

// entry is one cached block. All fields except ready's close are guarded
// by the shard mutex; data and err are written once before ready closes
// and are immutable afterwards.
type entry struct {
	key        Key
	data       []byte
	ready      chan struct{} // closed when the load completes (either way)
	loaded     bool          // data is valid
	dead       bool          // removed from the map while pinned (Drop)
	refs       int
	prev, next *entry // intrusive LRU; linked only when loaded
	linked     bool
}

// Pin is a live reference to a cached block. It is a small value type —
// copying it is cheap but only one Release per GetOrLoad is allowed.
// Bytes stays valid until Release. The zero Pin is a no-op.
type Pin struct {
	e *entry
	s *shard
}

// Bytes returns the pinned block. Callers must not mutate it, nor read
// it after Release.
func (p Pin) Bytes() []byte {
	if p.e == nil {
		return nil
	}
	return p.e.data
}

// Release drops the pin. The block may be evicted afterwards.
func (p Pin) Release() {
	if p.e == nil {
		return
	}
	p.s.mu.Lock()
	p.e.refs--
	if p.e.dead && p.e.refs == 0 {
		// Dropped while pinned: reclaim now that the last pin is gone.
		p.s.unlink(p.e)
		p.s.reclaim(p.e)
	}
	p.s.mu.Unlock()
}

type shard struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// LRU list: head.next is most-recent, head.prev is least-recent.
	head  entry
	bytes int64
	// free holds recycled frames; freeBytes sums their capacities, which
	// recycle keeps within budget-minus-resident before adding one frame.
	free      [][]byte
	freeBytes int64
	budget    int64 // capacity / shards; 0 = unbounded
}

func (s *shard) init() {
	s.entries = make(map[Key]*entry)
	s.head.next, s.head.prev = &s.head, &s.head
}

func (s *shard) unlink(e *entry) {
	if e.linked {
		e.prev.next, e.next.prev = e.next, e.prev
		e.prev, e.next, e.linked = nil, nil, false
	}
}

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = &s.head, s.head.next
	s.head.next.prev = e
	s.head.next = e
	e.linked = true
}

// reclaim takes an unreachable, unpinned entry's frame off the books and
// recycles it.
func (s *shard) reclaim(e *entry) {
	s.bytes -= int64(cap(e.data))
	s.recycle(e.data)
	e.data = nil
}

// recycle returns a frame no entry can reach any more to the free list,
// dropping the oldest free frames first so resident plus free bytes stay
// within the budget plus this one frame. Unbounded caches never evict, so
// they keep no free list.
func (s *shard) recycle(f []byte) {
	if s.budget == 0 {
		return
	}
	for len(s.free) > 0 && s.bytes+s.freeBytes > s.budget {
		s.freeBytes -= int64(cap(s.free[0]))
		s.free[0] = nil
		s.free = s.free[1:]
	}
	if s.bytes+s.freeBytes <= s.budget {
		s.free = append(s.free, f)
		s.freeBytes += int64(cap(f))
	}
}

// takeFrame pops the smallest free frame that can hold size bytes, or
// returns nil after releasing the oldest free frames to the GC until a new
// frame of that size fits the budget beside the rest.
func (s *shard) takeFrame(size int) []byte {
	best := -1
	for i, f := range s.free {
		if cap(f) >= size && (best < 0 || cap(f) <= cap(s.free[best])) {
			best = i
		}
	}
	if best < 0 {
		for len(s.free) > 0 && s.bytes+s.freeBytes+int64(frameBytes(size)) > s.budget {
			s.freeBytes -= int64(cap(s.free[0]))
			s.free[0], s.free = nil, s.free[1:]
		}
		return nil
	}
	f, last := s.free[best], len(s.free)-1
	s.free[best], s.free[last] = s.free[last], nil
	s.free = s.free[:last]
	s.freeBytes -= int64(cap(f))
	return f[:size]
}

// frameBytes is the capacity of a new frame for size bytes: whole floats.
func frameBytes(size int) int { return (size + 3) &^ 3 }

// newFrame allocates a float-backed, hence 4-byte-aligned, frame.
func newFrame(size int) []byte {
	f := make([]float32, frameBytes(size)/4)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))[:size]
}

// Stats is a point-in-time snapshot of cache counters. Hits count
// arrivals that found the block present or already loading (a
// singleflight wait still avoids a duplicate fetch); misses count
// arrivals that had to start a load. FrameAllocs counts misses that
// found no free frame to recycle and allocated a new one; FillBytes sums
// the bytes successful fills wrote. Bytes is resident frame capacity.
type Stats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	LoadFails   int64
	FrameAllocs int64
	FillBytes   int64
	Bytes       int64
	Entries     int64
}

// Cache is a sharded LRU block cache. Capacity is a global byte budget
// divided evenly across shards.
type Cache struct {
	shards   []shard
	capacity int64

	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	loadFails   atomic.Int64
	frameAllocs atomic.Int64
	fillBytes   atomic.Int64
}

// New creates a cache with the given capacity in bytes and shard count.
// capacity <= 0 means unbounded (nothing is ever evicted); shards <= 0
// picks a default of 8.
func New(capacity int64, shards int) *Cache {
	if shards <= 0 {
		shards = 8
	}
	c := &Cache{shards: make([]shard, shards)}
	var perShard int64
	if capacity > 0 {
		c.capacity = capacity
		perShard = max(capacity/int64(shards), 1)
	}
	for i := range c.shards {
		c.shards[i].init()
		c.shards[i].budget = perShard
	}
	return c
}

// Capacity returns the configured byte budget (0 = unbounded).
func (c *Cache) Capacity() int64 { return c.capacity }

func (c *Cache) shardFor(k Key) *shard {
	// FNV-1a over the owner, extent and stripe; cheap and well-spread for
	// dense stripe indices.
	h := uint64(14695981039346656037)
	for _, v := range [...]uint64{k.Owner, uint64(k.Ext), uint64(k.Row / stripeRows)} {
		h ^= v
		h *= 1099511628211
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// GetOrLoad returns a pinned view of the size-byte block for k, invoking
// fill at most once per residency to write it into a cache-owned frame
// (the best-fitting free frame, else a new one). fill must
// write all of dst — a recycled frame holds an older block's bytes — and
// must not retain it. The returned Pin must be released on every path
// (the blockpin analyzer enforces this). On fill failure the error is
// returned, nothing is cached, and waiting getters retry (one of them
// becomes the next loader).
func (c *Cache) GetOrLoad(k Key, size int, fill func(dst []byte) error) (Pin, error) {
	s := c.shardFor(k)
	for {
		s.mu.Lock()
		if e, ok := s.entries[k]; ok {
			if e.loaded {
				e.refs++
				s.unlink(e)
				s.pushFront(e)
				s.mu.Unlock()
				c.hits.Add(1)
				return Pin{e: e, s: s}, nil
			}
			// Load in flight: wait, then re-check from scratch (the entry
			// is removed on load failure).
			ready := e.ready
			s.mu.Unlock()
			c.hits.Add(1)
			<-ready
			continue
		}
		// Miss: install a loading placeholder, make room for the block —
		// the least-recent victims' frames go to the free list, and one
		// of them becomes this block's frame — and release the lock for
		// the fill itself.
		e := &entry{key: k, ready: make(chan struct{})}
		s.entries[k] = e
		c.evictLocked(s, int64(frameBytes(size)))
		frame := s.takeFrame(size)
		s.mu.Unlock()
		c.misses.Add(1)
		if frame == nil {
			frame = newFrame(size)
			c.frameAllocs.Add(1)
		}

		err := fill(frame)
		s.mu.Lock()
		if err != nil {
			if s.entries[k] == e {
				delete(s.entries, k)
			}
			s.recycle(frame)
			s.mu.Unlock()
			close(e.ready)
			c.loadFails.Add(1)
			return Pin{}, err
		}
		e.data = frame
		e.loaded = true
		e.refs = 1
		s.bytes += int64(cap(frame)) // Release reclaims this for dead entries
		if s.entries[k] == e {
			s.pushFront(e)
			c.evictLocked(s, 0) // concurrent fills may have overshot
		} else {
			// Dropped while loading: serve this pin, cache nothing.
			e.dead = true
		}
		s.mu.Unlock()
		close(e.ready)
		c.fillBytes.Add(int64(size))
		return Pin{e: e, s: s}, nil
	}
}

// evictLocked walks the LRU from least-recent, dropping unpinned resident
// entries until a room-byte frame fits the shard's budget. Pinned entries are
// skipped — capacity is a target, not a hard guarantee, while scans hold
// pins.
func (c *Cache) evictLocked(s *shard, room int64) {
	for s.budget > 0 && s.bytes+room > s.budget {
		e := s.head.prev
		for e != &s.head && e.refs > 0 {
			e = e.prev
		}
		if e == &s.head {
			return // everything pinned
		}
		s.unlink(e)
		if s.entries[e.key] == e {
			delete(s.entries, e.key)
		}
		s.reclaim(e)
		c.evictions.Add(1)
	}
}

// Drop removes every block belonging to owner (segment GC or demotion
// invalidation): unpinned blocks are reclaimed immediately, pinned ones
// are detached from the map (new gets reload fresh) and reclaimed when
// their last pin releases. A block still loading is detached too: its
// loader serves its one pin, caches nothing, and the frame is recycled at
// that pin's Release.
func (c *Cache) Drop(owner uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.entries {
			if k.Owner != owner {
				continue
			}
			delete(s.entries, k)
			switch {
			case !e.loaded:
				// Loading: its loader finds itself detached.
			case e.refs == 0:
				s.unlink(e)
				s.reclaim(e)
			default:
				e.dead = true
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns current counters.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Evictions:   c.evictions.Load(),
		LoadFails:   c.loadFails.Load(),
		FrameAllocs: c.frameAllocs.Load(),
		FillBytes:   c.fillBytes.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Entries += int64(len(s.entries))
		s.mu.Unlock()
	}
	return st
}
