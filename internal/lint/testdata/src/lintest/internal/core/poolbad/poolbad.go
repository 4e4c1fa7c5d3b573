// Package poolbad seeds poolfree violations: leaked, discarded and
// branch-dependent pooled scratch, next to the legal shapes (defer,
// escape, ownership transfer) that must stay silent.
package poolbad

import (
	"errors"

	"lintest.example/internal/bufferpool"
	"lintest.example/internal/topk"
)

// LeakOnError releases only on the success path.
func LeakOnError(fail bool) error {
	bp := bufferpool.GetFloats(8)
	if fail {
		return errors.New("boom") // want poolfree "not released on this return path"
	}
	bufferpool.PutFloats(bp)
	return nil
}

// Discarded never binds the pooled value at all.
func Discarded() {
	bufferpool.GetFloats(8)     // want poolfree "is discarded"
	_ = bufferpool.GetFloats(8) // want poolfree "is discarded"
}

// LeakToEnd falls off the end of the function with the heap live.
func LeakToEnd() {
	h := topk.GetHeap(4) // want poolfree "not released before the function returns"
	h.Push(1, 2)
}

// BranchyLeak releases on one branch only, so the merged fall-through
// state is unreleased.
func BranchyLeak(flag bool) {
	bp := bufferpool.GetFloats(8) // want poolfree "not released before the function returns"
	if flag {
		bufferpool.PutFloats(bp)
	}
}

// Deferred is the canonical legal shape.
func Deferred() float32 {
	bp := bufferpool.GetFloats(8)
	defer bufferpool.PutFloats(bp)
	return (*bp)[0]
}

// Transfer returns the pooled value: ownership moves to the caller.
func Transfer() *[]float32 {
	bp := bufferpool.GetFloats(8)
	return bp
}

// EscapeCall hands the pooled value to another function, which owns it
// from then on.
func EscapeCall(sink func(*[]float32)) {
	bp := bufferpool.GetFloats(8)
	sink(bp)
}

// HeapRoundTrip snapshots and releases before both returns.
func HeapRoundTrip(n int) []topk.Result {
	h := topk.GetHeap(4)
	for i := 0; i < n; i++ {
		h.Push(int64(i), float32(i))
	}
	if n > 10 {
		topk.PutHeap(h)
		return nil
	}
	out := h.Snapshot()
	topk.PutHeap(h)
	return out
}

// heapGrid holds pooled heaps in its own fields.
type heapGrid struct {
	heaps []*topk.Heap
	one   *topk.Heap
}

// StoreIntoElement stores each pooled heap into a slice element and a
// field: the grid owns them from then on, as with any other store.
func StoreIntoElement(m *heapGrid) {
	for i := range m.heaps {
		m.heaps[i] = topk.GetHeap(4)
	}
	m.one = topk.GetHeap(4)
}
