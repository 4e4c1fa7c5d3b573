// Package topk implements bounded top-k result collection for vector search.
//
// Search keeps the k best (smallest-distance) candidates seen so far in a
// bounded max-heap: the root is the current worst retained result, so an
// incoming candidate is admitted only if it beats the root (O(1) rejection on
// the hot path). The paper's cache-aware engine (Sec. 3.2.1) dedicates one
// such heap per (query, thread) pair and merges them afterwards; Merge and
// the preallocated Matrix support that design.
package topk

import (
	"slices"

	"vectordb/internal/bufferpool"
)

// Result is one search hit. Distance follows the smaller-is-better
// convention (inner product is negated upstream).
type Result struct {
	ID       int64
	Distance float32
}

// Heap is a bounded max-heap of the k smallest-distance results.
// The zero value is unusable; call New.
type Heap struct {
	k    int
	data []Result
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
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Heap{k: k, data: make([]Result, 0, Reserve(k))}
}

// Init re-arms a heap (possibly the zero value, possibly recycled from a
// free list) for a new bound k, reusing the backing array when it holds
// Reserve(k). k must be positive.
func (h *Heap) Init(k int) {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	h.k = k
	if n := Reserve(k); cap(h.data) < n {
		h.data = make([]Result, 0, n)
	} else {
		h.data = h.data[:0]
	}
}

// Reset empties the heap, retaining capacity.
func (h *Heap) Reset() { h.data = h.data[:0] }

// K returns the bound.
func (h *Heap) K() int { return h.k }

// Len returns the number of retained results.
func (h *Heap) Len() int { return len(h.data) }

// Full reports whether k results are retained.
func (h *Heap) Full() bool { return len(h.data) == h.k }

// Worst returns the largest retained distance. It is only meaningful when
// the heap is non-empty; on an empty heap it returns +inf semantics via ok.
func (h *Heap) Worst() (float32, bool) {
	if len(h.data) == 0 {
		return 0, false
	}
	return h.data[0].Distance, true
}

// Accepts reports whether a candidate with distance d would be admitted.
func (h *Heap) Accepts(d float32) bool {
	return len(h.data) < h.k || d < h.data[0].Distance
}

// Push offers a candidate; it is retained if it is among the k best so far.
// NaN distances are rejected: NaN compares false against everything, so an
// admitted NaN could never be evicted and would silently shrink the usable
// heap (kernel edge cases — all-Inf inputs — can produce one).
func (h *Heap) Push(id int64, d float32) {
	if d != d {
		return
	}
	if len(h.data) < h.k {
		h.data = append(h.data, Result{id, d})
		h.up(len(h.data) - 1)
		return
	}
	if d >= h.data[0].Distance {
		return
	}
	h.data[0] = Result{id, d}
	h.down(0)
}

func (h *Heap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.data[p].Distance >= h.data[i].Distance {
			return
		}
		h.data[p], h.data[i] = h.data[i], h.data[p]
		i = p
	}
}

func (h *Heap) down(i int) {
	n := len(h.data)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.data[l].Distance > h.data[big].Distance {
			big = l
		}
		if r < n && h.data[r].Distance > h.data[big].Distance {
			big = r
		}
		if big == i {
			return
		}
		h.data[i], h.data[big] = h.data[big], h.data[i]
		i = big
	}
}

// Fold pushes every result o retains into h, unsorted, leaving o as it
// was. Folding per-task heaps into one and taking its Results is the
// single sort of a merge; o's bound may differ from h's.
func (h *Heap) Fold(o *Heap) {
	for _, r := range o.data {
		h.Push(r.ID, r.Distance)
	}
}

// Results returns the retained results sorted ascending by distance, ties
// broken by ID for determinism. The heap is left empty.
func (h *Heap) Results() []Result {
	out := make([]Result, len(h.data))
	copy(out, h.data)
	h.data = h.data[:0]
	sortResults(out)
	return out
}

// Snapshot returns the retained results sorted ascending by distance without
// consuming the heap.
func (h *Heap) Snapshot() []Result {
	out := make([]Result, len(h.data))
	copy(out, h.data)
	sortResults(out)
	return out
}

func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Distance < b.Distance:
			return -1
		case a.Distance > b.Distance:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// mergeHeaps recycles Merge's scratch heaps: Merge runs once per query per
// merge level on the hot path, and a fresh k-sized heap per call was a
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
	h := mergeHeaps.Get()
	h.Init(k)
	for _, l := range lists {
		for _, r := range l {
			h.Push(r.ID, r.Distance)
		}
	}
	out := h.Results()
	mergeHeaps.Put(h)
	return out
}

// Matrix is the t×s grid of heaps used by the blocked batch engine: one heap
// per (thread, query-in-block) pair so threads never contend on a lock
// (Sec. 3.2.1, Fig. 3).
type Matrix struct {
	threads int
	queries int
	heaps   []*Heap
}

// NewMatrix allocates a threads×queries grid of k-bounded heaps.
func NewMatrix(threads, queries, k int) *Matrix {
	m := &Matrix{threads: threads, queries: queries, heaps: make([]*Heap, threads*queries)}
	for i := range m.heaps {
		m.heaps[i] = New(k)
	}
	return m
}

// At returns the heap dedicated to (thread, query).
func (m *Matrix) At(thread, query int) *Heap { return m.heaps[thread*m.queries+query] }

// Reset empties every heap for block reuse.
func (m *Matrix) Reset() {
	for _, h := range m.heaps {
		h.Reset()
	}
}

// MergeQuery merges all per-thread heaps of one query into its final top-k.
func (m *Matrix) MergeQuery(query, k int) []Result {
	h := GetHeap(k)
	for t := 0; t < m.threads; t++ {
		h.Fold(m.At(t, query))
	}
	out := h.Results()
	PutHeap(h)
	return out
}
