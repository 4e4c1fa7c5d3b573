package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapKeepsKSmallest(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(200)
		k := 1 + r.Intn(20)
		ds := make([]float32, n)
		h := New(k)
		for i := range ds {
			ds[i] = r.Float32()
			h.Push(int64(i), ds[i])
		}
		got := h.Results()
		sorted := append([]float32(nil), ds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		want := k
		if n < k {
			want = n
		}
		if len(got) != want {
			t.Fatalf("len = %d, want %d", len(got), want)
		}
		for i, res := range got {
			if res.Distance != sorted[i] {
				t.Fatalf("result[%d] = %v, want %v", i, res.Distance, sorted[i])
			}
		}
	}
}

func TestHeapOrderingAndTies(t *testing.T) {
	h := New(4)
	h.Push(3, 1.0)
	h.Push(1, 1.0)
	h.Push(2, 0.5)
	h.Push(4, 2.0)
	h.Push(5, 0.1) // evicts 2.0
	got := h.Results()
	wantIDs := []int64{5, 2, 1, 3}
	for i, id := range wantIDs {
		if got[i].ID != id {
			t.Fatalf("got %v, want IDs %v", got, wantIDs)
		}
	}
}

func TestSnapshotDoesNotConsume(t *testing.T) {
	h := New(3)
	h.Push(1, 1)
	h.Push(2, 2)
	s1 := h.Snapshot()
	s2 := h.Snapshot()
	if len(s1) != 2 || len(s2) != 2 {
		t.Fatalf("Snapshot consumed the heap: %v %v", s1, s2)
	}
	if got := h.Results(); len(got) != 2 {
		t.Fatalf("Results after Snapshot = %v", got)
	}
	if h.Len() != 0 {
		t.Fatal("Results did not drain heap")
	}
}

func TestResetReuse(t *testing.T) {
	h := New(2)
	h.Push(1, 1)
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not empty heap")
	}
	h.Push(9, 9)
	if got := h.Results(); len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("after reset got %v", got)
	}
}

func TestNewPanicsOnNonPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestMerge(t *testing.T) {
	a := []Result{{1, 0.1}, {2, 0.4}}
	b := []Result{{3, 0.2}, {4, 0.3}}
	got := Merge(3, a, b)
	wantIDs := []int64{1, 3, 4}
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	for i, id := range wantIDs {
		if got[i].ID != id {
			t.Fatalf("got %v, want %v", got, wantIDs)
		}
	}
}

// Property: merging any partition of a stream equals collecting the stream
// in one heap — the invariant the per-thread heap design depends on.
func TestMergePartitionInvariance(t *testing.T) {
	f := func(seed int64, parts uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 50 + r.Intn(100)
		p := int(parts%7) + 1
		k := 1 + r.Intn(12)
		whole := New(k)
		lists := make([][]Result, p)
		for i := 0; i < n; i++ {
			d := r.Float32()
			whole.Push(int64(i), d)
			pi := r.Intn(p)
			h := New(k)
			for _, res := range lists[pi] {
				h.Push(res.ID, res.Distance)
			}
			h.Push(int64(i), d)
			lists[pi] = h.Results()
		}
		want := whole.Results()
		got := Merge(k, lists...)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHeapPush(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	ds := make([]float32, 4096)
	for i := range ds {
		ds[i] = r.Float32()
	}
	h := New(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(int64(i), ds[i%len(ds)])
	}
}

// TestHugeKGrowsWithWhatItKeeps: a bound past reserve sets aside only
// reserve results, keeps every result pushed below it, and grows past
// reserve as results arrive.
func TestHugeKGrowsWithWhatItKeeps(t *testing.T) {
	for _, h := range []*Heap{New(1 << 62), GetHeap(1 << 62)} {
		if cap(h.data) > reserve {
			t.Fatalf("k 2^62: %d results set aside, want at most %d", cap(h.data), reserve)
		}
		n := 3 * reserve
		for i := n - 1; i >= 0; i-- {
			h.Push(int64(i), float32(i))
		}
		if h.set || h.Len() != n {
			t.Fatalf("k 2^62 after %d pushes: len %d, bound set %v", n, h.Len(), h.set)
		}
		for i, r := range h.Results() {
			if r.ID != int64(i) {
				t.Fatalf("result %d is id %d", i, r.ID)
			}
		}
	}
}
