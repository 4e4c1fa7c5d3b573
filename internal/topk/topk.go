// Package topk implements bounded top-k result collection for vector search.
//
// Search keeps the k best (smallest-distance) candidates seen so far in a
// threshold-and-select collector: a candidate below the current bound is
// appended unsorted, and when 2k are held one selection keeps the k best
// and makes the k-th distance the new bound (Faiss's ReservoirTopN). A
// rejection costs one compare, an admission an append, and no candidate is
// ever sifted. Results sorts the k survivors once. The paper's cache-aware
// engine (Sec. 3.2.1) dedicates one collector per (query, thread) pair and
// merges them afterwards; Fold and Merge support that design.
package topk

import (
	"cmp"
	"math"
	"slices"

	"vectordb/internal/bufferpool"
)

// Result is one search hit. Distance follows the smaller-is-better
// convention (inner product is negated upstream).
type Result struct {
	ID       int64
	Distance float32
}

// Heap is a threshold-and-select collector of the k smallest-distance
// results. The zero value is unusable; call New or Init.
type Heap struct {
	k     int
	next  int     // the length that triggers a compaction: k, then 2k
	limit int     // 2k, saturating
	bound float32 // no candidate at or above it can enter; +Inf until set
	set   bool    // bound is set: k candidates have arrived
	data  []Result
	keys  []uint64 // Results' sort scratch
}

// reserve is the most results a heap sets aside before any arrive; past
// it, a heap grows with what it keeps. So a request's k sizes no
// allocation: a k of 2^62 over a few rows holds a few rows.
const reserve = 1024

// Reserve is the room to set aside for at most n results: n, but no more
// than reserve. Searches that size their own candidate lists by a
// request's bound (HNSW's visited set, NSG's pool) take it too.
func Reserve(n int) int { return min(n, reserve) }

// New returns a heap retaining the k best results. k must be positive.
func New(k int) *Heap {
	h := new(Heap)
	h.Init(k)
	return h
}

// Init re-arms a heap (possibly the zero value, possibly recycled from a
// free list) for a new bound k, reusing the backing array when it holds
// what a compaction needs, at most Reserve(2k). k must be positive.
func (h *Heap) Init(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	h.k, h.limit = k, k+min(k, math.MaxInt-k)
	if n := Reserve(2 * min(k, reserve)); cap(h.data) < n {
		h.data = make([]Result, 0, n)
	}
	h.Reset()
}

// Reset empties the heap, retaining capacity.
func (h *Heap) Reset() {
	h.data = h.data[:0]
	h.next, h.bound, h.set = h.k, float32(math.Inf(1)), false
}

// Len returns the number of results Results would return.
func (h *Heap) Len() int { return min(len(h.data), h.k) }

// Worst returns the bound on the k-th distance — no candidate at or above
// it enters — and whether it is set, which it is from the k-th candidate
// on; unset, it is +Inf. It is the k-th distance at the last compaction,
// looser than the k-th seen since.
func (h *Heap) Worst() (float32, bool) { return h.bound, h.set }

// admits reports whether a candidate at distance d enters. NaN never
// does: a kept NaN could never be evicted, and scans write NaN over the
// rows a filter drops.
func (h *Heap) admits(d float32) bool { return d < h.bound || !h.set && d == d }

// add appends a candidate the bound admitted, compacting when due.
func (h *Heap) add(id int64, d float32) {
	if h.data = append(h.data, Result{id, d}); len(h.data) >= h.next {
		h.compact()
	}
}

// Push offers one candidate.
func (h *Heap) Push(id int64, d float32) {
	if h.admits(d) {
		h.add(id, d)
	}
}

// Offer offers a block of distances: dists[r] is row base+r's, whose ID is
// ids[base+r], or base+r when ids is nil. A scan drops a row by writing
// NaN over its distance.
func (h *Heap) Offer(dists []float32, ids []int64, base int) {
	bound, unset := h.bound, !h.set
	for r, d := range dists {
		if d < bound || unset && d == d {
			if ids != nil {
				h.add(ids[base+r], d)
			} else {
				h.add(int64(base+r), d)
			}
			bound, unset = h.bound, !h.set
		}
	}
}

// OfferRows offers gathered rows' distances: dists[i] is row rows[i]'s,
// whose ID is ids[rows[i]], or rows[i] when ids is nil.
func (h *Heap) OfferRows(dists []float32, rows []int32, ids []int64) {
	bound, unset := h.bound, !h.set
	for i, d := range dists[:len(rows)] {
		if d < bound || unset && d == d {
			if ids != nil {
				h.add(ids[rows[i]], d)
			} else {
				h.add(int64(rows[i]), d)
			}
			bound, unset = h.bound, !h.set
		}
	}
}

// compact sets the bound once k candidates are held: at +Inf, which no
// later +Inf or NaN passes, until 2k are held; then it keeps the k best,
// in arrival order, and makes the k-th distance the bound.
func (h *Heap) compact() {
	h.next, h.set = h.limit, true
	if len(h.data) < h.limit {
		return
	}
	kth := selectKeys(h.keyed(h.data), h.k)
	h.bound = h.data[uint32(kth)].Distance
	w := 0
	for i, r := range h.data {
		h.data[w] = r
		w += b2i(key(r.Distance, i) <= kth)
	}
	h.data = h.data[:w]
}

// key is a result's sort key: its distance's bits, mapped so that they
// order as the distances do (negatives flip whole, the rest gain the top
// bit), above its position. Keys are distinct and order as (distance,
// position).
func key(d float32, i int) uint64 {
	b := math.Float32bits(d)
	b ^= uint32(int32(b)>>31) | 1<<31
	return uint64(b)<<32 | uint64(i)
}

// keyed returns the keys of rs in h's scratch.
func (h *Heap) keyed(rs []Result) []uint64 {
	if uint64(len(rs)) > math.MaxUint32 {
		panic("topk: more than 2^32 results held")
	}
	keys := h.keys[:0]
	for i, r := range rs {
		keys = append(keys, key(r.Distance, i))
	}
	h.keys = keys
	return keys
}

// selectKeys reorders distinct keys so that a[:k] holds the k smallest,
// and returns the k-th: a quickselect on a median-of-three pivot whose
// partition is a branch-free Lomuto sweep.
func selectKeys(a []uint64, k int) uint64 {
	lo, hi := 0, len(a)
	for hi-lo > 1 {
		i, j, l := lo, (lo+hi)/2, hi-1
		if a[i] > a[j] {
			i, j = j, i
		}
		if a[j] > a[l] {
			j = l
		}
		if a[i] > a[j] {
			j = i
		}
		a[j], a[l] = a[l], a[j]
		p, m := a[l], lo
		for j := lo; j < l; j++ {
			x := a[j]
			a[j], a[m] = a[m], x
			m += b2i(x < p)
		}
		a[m], a[l] = p, a[m]
		switch {
		case k-1 < m:
			hi = m
		case k-1 > m:
			lo = m + 1
		default:
			return p
		}
	}
	return a[k-1]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Fold appends o's k best results that h's bound admits, then compacts h
// once if due; o keeps what it held. When o's bound is at least h's, o's
// other candidates cannot displace one of its k best, so they go in
// unselected. Folding per-task heaps into one and taking its Results is
// the single sort of a merge.
func (h *Heap) Fold(o *Heap) {
	rs := o.data
	if len(rs) > o.k && o.k < h.k {
		rs = o.Snapshot()
	}
	for _, r := range rs {
		if h.admits(r.Distance) {
			h.data = append(h.data, r)
		}
	}
	if len(h.data) >= h.next {
		h.compact()
	}
}

// Results returns the retained results sorted ascending by distance, ties
// broken by ID for determinism. The heap is left empty.
func (h *Heap) Results() []Result {
	out := h.sorted()
	h.Reset()
	return out
}

// Snapshot returns the retained results sorted ascending by distance without
// consuming the heap.
func (h *Heap) Snapshot() []Result { return h.sorted() }

// sorted returns the k best held results in a fresh slice sorted by
// (distance, ID): one selection and one sort of their keys, and the
// (distance, ID) comparator only when two distances tie.
func (h *Heap) sorted() []Result {
	keys := h.keyed(h.data)
	if len(keys) > h.k {
		selectKeys(keys, h.k)
		keys = keys[:h.k]
	}
	slices.Sort(keys)
	out := make([]Result, len(keys))
	for i, kk := range keys {
		out[i] = h.data[uint32(kk)]
	}
	for i := 1; i < len(out); i++ {
		if out[i].Distance == out[i-1].Distance {
			slices.SortFunc(out, func(a, b Result) int {
				if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
					return c
				}
				return cmp.Compare(a.ID, b.ID)
			})
			break
		}
	}
	return out
}

// mergeHeaps recycles scratch heaps: Merge runs once per query per merge
// level on the hot path, and a fresh k-sized heap per call was a
// measurable allocation source (see TestMergeAllocs).
var mergeHeaps = bufferpool.NewFree(func() *Heap { return new(Heap) })

// GetHeap returns a pooled heap armed for k. It serves the per-task scratch
// heaps of the scan paths (flat search, IVF batch workers, GPU top-k
// rounds); Results/Snapshot copy out, so the heap can be recycled with
// PutHeap as soon as its results have been taken.
func GetHeap(k int) *Heap {
	h := mergeHeaps.Get()
	h.Init(k)
	return h
}

// PutHeap recycles a heap obtained from GetHeap (or Merge's pool). The
// caller must not use it afterwards.
func PutHeap(h *Heap) { mergeHeaps.Put(h) }

// Merge combines several sorted-or-unsorted result lists into the global
// top-k, as the cache-aware engine does across per-thread heaps. The
// scratch heap is pooled; only the returned slice is allocated.
func Merge(k int, lists ...[]Result) []Result {
	h := GetHeap(k)
	for _, l := range lists {
		for _, r := range l {
			h.Push(r.ID, r.Distance)
		}
	}
	out := h.Results()
	PutHeap(h)
	return out
}
