package topk

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzHeapPush feeds the heap arbitrary (id, distance) streams — including
// NaN, ±Inf and denormals — and checks the invariants no input may break:
// the heap never exceeds k, Results is sorted ascending, NaN never enters
// (a NaN worst-element would wedge the heap: no finite distance evicts it),
// and Snapshot agrees with Results.
func FuzzHeapPush(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	posInf := math.Float32bits(float32(math.Inf(1)))
	negInf := math.Float32bits(float32(math.Inf(-1)))
	mk := func(k byte, pairs ...uint32) []byte {
		out := []byte{k}
		for i := 0; i < len(pairs); i += 2 {
			out = binary.LittleEndian.AppendUint32(out, pairs[i])
			out = binary.LittleEndian.AppendUint32(out, pairs[i+1])
		}
		return out
	}
	f.Add(mk(3, 1, math.Float32bits(1.5), 2, math.Float32bits(0.5), 3, math.Float32bits(2.5)))
	f.Add(mk(1, 7, nan, 8, math.Float32bits(1)))                 // NaN first, then finite
	f.Add(mk(4, 1, posInf, 2, negInf, 3, nan, 4, nan))           // all the specials
	f.Add(mk(2, 5, math.Float32bits(0), 5, math.Float32bits(0))) // duplicate id, tied distance
	f.Add(mk(0))                                                 // k byte maps to minimum 1
	f.Add([]byte{255})                                           // large k, no pushes
	f.Add(mk(8, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7))       // denormal distances

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0])%64 + 1
		h := New(k)
		data = data[1:]
		pushed := 0
		for len(data) >= 8 {
			id := int64(binary.LittleEndian.Uint32(data))
			d := math.Float32frombits(binary.LittleEndian.Uint32(data[4:]))
			data = data[8:]
			h.Push(id, d)
			if d == d {
				pushed++
			}
		}
		if h.Len() > k {
			t.Fatalf("heap holds %d > k=%d", h.Len(), k)
		}
		if pushed >= k && !h.set {
			t.Fatalf("heap not full after %d valid pushes with k=%d", pushed, k)
		}
		snap := h.Snapshot()
		res := h.Results()
		if len(snap) != len(res) {
			t.Fatalf("Snapshot len %d != Results len %d", len(snap), len(res))
		}
		for i, r := range res {
			if r.Distance != r.Distance {
				t.Fatalf("NaN distance survived at rank %d", i)
			}
			if i > 0 && r.Distance < res[i-1].Distance {
				t.Fatalf("results unsorted at rank %d: %v < %v", i, r.Distance, res[i-1].Distance)
			}
		}
	})
}

// FuzzMerge checks that merging arbitrary partitions of a result stream
// never produces more than k results, keeps them sorted, and, like folding
// the partitions' heaps into one, equals the heap built over the whole
// stream when distances are unique.
func FuzzMerge(f *testing.F) {
	f.Add([]byte{4, 2, 1, 10, 2, 20, 3, 30, 4, 40, 5, 50})
	f.Add([]byte{1, 1, 9, 200})
	f.Add([]byte{8, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := int(data[0])%16 + 1
		parts := int(data[1])%4 + 1
		data = data[2:]
		lists := make([][]Result, parts)
		whole := New(k)
		for i := 0; len(data) >= 2; i++ {
			id, d := int64(data[0]), float32(data[1])
			data = data[2:]
			p := New(k)
			for _, r := range lists[i%parts] {
				p.Push(r.ID, r.Distance)
			}
			p.Push(id, d)
			lists[i%parts] = p.Results()
			whole.Push(id, d)
		}
		merged := Merge(k, lists...)
		if len(merged) > k {
			t.Fatalf("merge produced %d > k=%d results", len(merged), k)
		}
		for i := 1; i < len(merged); i++ {
			if merged[i].Distance < merged[i-1].Distance {
				t.Fatalf("merged results unsorted at %d", i)
			}
		}
		// Folding the parts' heaps into one is the other way to merge.
		folded := New(k)
		for _, l := range lists {
			p := New(k)
			for _, r := range l {
				p.Push(r.ID, r.Distance)
			}
			folded.Fold(p)
		}
		want := whole.Results()
		for name, got := range map[string][]Result{"merged": merged, "folded": folded.Results()} {
			if len(got) != len(want) {
				t.Fatalf("%s kept %d results, single heap kept %d", name, len(got), len(want))
			}
			for i := range got {
				if got[i].Distance != want[i].Distance {
					t.Fatalf("rank %d: %s distance %v, single-heap %v", i, name, got[i].Distance, want[i].Distance)
				}
			}
		}
	})
}
