package topk

import (
	"testing"
)

func TestHeapInitReusesCapacity(t *testing.T) {
	h := New(8)
	for i := 0; i < 8; i++ {
		h.Push(int64(i), float32(i))
	}
	h.Init(4)
	if h.k != 4 || h.Len() != 0 {
		t.Fatalf("after Init(4): k=%d len=%d", h.k, h.Len())
	}
	h.Push(1, 1)
	h.Push(2, 0.5)
	got := h.Results()
	if len(got) != 2 || got[0].ID != 2 {
		t.Fatalf("results after reuse: %v", got)
	}
	var zero Heap
	zero.Init(3)
	zero.Push(7, 7)
	if zero.Len() != 1 {
		t.Fatalf("zero-value heap after Init: len=%d", zero.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Init(0) did not panic")
		}
	}()
	h.Init(0)
}

// TestMergeAllocs pins Merge's allocation budget: the scratch heap is
// pooled, so steady-state Merge allocates only the returned slice (1
// alloc). A regression that reintroduces a per-call heap (+ backing
// array) would at least triple this.
func TestMergeAllocs(t *testing.T) {
	lists := [][]Result{
		{{1, 0.5}, {2, 0.1}, {3, 0.9}},
		{{4, 0.2}, {5, 0.8}},
		{{6, 0.3}, {7, 0.7}, {8, 0.4}},
	}
	// Warm the free list so the measured runs hit steady state.
	_ = Merge(4, lists...)
	avg := testing.AllocsPerRun(200, func() {
		if got := Merge(4, lists...); len(got) != 4 {
			t.Fatalf("merge returned %d results", len(got))
		}
	})
	if avg > 2 {
		t.Fatalf("Merge allocates %.1f objects/op, want <= 2 (pooled heap regressed?)", avg)
	}
}

func TestMergeStillCorrectAfterPooling(t *testing.T) {
	// Interleave different k values so pooled heaps are re-armed across
	// calls with both growing and shrinking bounds.
	for trial := 0; trial < 50; trial++ {
		k := 1 + trial%7
		var lists [][]Result
		want := map[int64]bool{}
		for l := 0; l < 3; l++ {
			var list []Result
			for i := 0; i < 5; i++ {
				id := int64(trial*100 + l*10 + i)
				list = append(list, Result{ID: id, Distance: float32(id % 13)})
			}
			lists = append(lists, list)
		}
		got := Merge(k, lists...)
		if len(got) != min(k, 15) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), min(k, 15))
		}
		for i := 1; i < len(got); i++ {
			prev, cur := got[i-1], got[i]
			if cur.Distance < prev.Distance || (cur.Distance == prev.Distance && cur.ID < prev.ID) {
				t.Fatalf("trial %d: results out of order at %d: %v", trial, i, got)
			}
			if want[cur.ID] {
				t.Fatalf("trial %d: duplicate id %d", trial, cur.ID)
			}
			want[cur.ID] = true
		}
	}
}

func BenchmarkMerge(b *testing.B) {
	const k, lists, per = 10, 8, 64
	in := make([][]Result, lists)
	for l := range in {
		in[l] = make([]Result, per)
		for i := range in[l] {
			x := uint64(l*per+i)*0x9E3779B97F4A7C15 + 1
			x ^= x >> 29
			in[l][i] = Result{ID: int64(l*per + i), Distance: float32(x%4096) / 4096}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Merge(k, in...); len(got) != k {
			b.Fatal("bad merge")
		}
	}
}
