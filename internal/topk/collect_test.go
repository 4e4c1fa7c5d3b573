package topk

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// collectK maps a fuzz byte to a bound: 1 to 40, or 2^62.
func collectK(b byte) int {
	if b == 255 {
		return 1 << 62
	}
	return int(b)%40 + 1
}

// collectDist maps a fuzz byte to a distance: NaN, ±Inf, -0, or one of 64
// quarter steps, so ties at the k-th distance are common.
func collectDist(b byte) float32 {
	switch b {
	case 0xf0:
		return float32(math.NaN())
	case 0xf1:
		return float32(math.Inf(1))
	case 0xf2:
		return float32(math.Inf(-1))
	case 0xf3:
		return float32(math.Copysign(0, -1))
	}
	return float32(b%64) / 4
}

// idBase offsets the IDs of rows offered through an ID column, so they
// never collide with rows offered by position.
const idBase = 1 << 40

// FuzzCollect checks the collector against a full sort of what it was
// offered: single pushes, block offers by position and through an ID
// column, gathered rows, and a second collector of another bound folded
// in. Results holds min(k, admissible) hits ascending by (distance, ID),
// each one offered, none NaN, and their distances are the smallest
// distances offered — so no dropped candidate beats a kept one.
func FuzzCollect(f *testing.F) {
	f.Add([]byte{3, 2, 0, 4, 1, 8, 5, 9, 7, 2})                          // pushes, a fold
	f.Add([]byte{1, 1, 0x41, 4, 4, 4, 4, 0x42, 1, 1, 1})                 // k = 1, ties
	f.Add([]byte{40, 5, 0x21, 0xf0, 0xf1, 0xf2, 0xf3, 0, 0xf0, 0x02, 5}) // specials, k > n
	f.Add([]byte{255, 255, 0x7d, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0x03, 0}) // k = 2^62
	f.Add([]byte{4, 9, 0x7d, 8, 8, 8, 8, 8, 8, 8, 8, 0x7e, 8, 8, 8, 8, 8, 8, 8, 0x7f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ka, kb, fold := collectK(data[0]), collectK(data[1]), data[2]&1 == 1
		a, b := New(ka), New(kb)
		var offeredA, offeredB []Result
		byID := map[int64]float32{}
		idCol := make([]int64, 0, len(data))
		row := 0
		// Each op: bits 0–1 the kind, bit 2 the collector (b when set),
		// bits 3–7 the block length less one.
		for data = data[3:]; len(data) > 0; {
			op := data[0]
			n := min(int(op>>3)+1, len(data)-1)
			if op&3 == 0 {
				n = min(1, n)
			}
			ds := make([]float32, n)
			for i := range ds {
				ds[i] = collectDist(data[1+i])
			}
			data = data[1+n:]
			h, offered := a, &offeredA
			if op&4 != 0 {
				h, offered = b, &offeredB
			}
			ids := make([]int64, n) // the IDs the rows will carry
			for i := range ids {
				idCol = append(idCol, idBase+int64(row+i))
				ids[i] = int64(row + i)
				if op&3 == 2 {
					ids[i] += idBase
				}
			}
			switch op & 3 {
			case 0:
				for i, d := range ds {
					h.Push(ids[i], d)
				}
			case 1:
				h.Offer(ds, nil, row)
			case 2:
				h.Offer(ds, idCol, row)
			case 3: // the rows gathered back to front
				rows := make([]int32, n)
				for i := range rows {
					rows[i] = int32(row + n - 1 - i)
				}
				slices.Reverse(ds)
				slices.Reverse(ids)
				h.OfferRows(ds, rows, nil)
			}
			for i, d := range ds {
				byID[ids[i]] = d
				if d == d {
					*offered = append(*offered, Result{ids[i], d})
				}
			}
			row += n
		}
		byDist := func(x, y Result) int { return cmp.Compare(x.Distance, y.Distance) }
		slices.SortFunc(offeredA, byDist)
		slices.SortFunc(offeredB, byDist)
		if fold {
			bs := b.Snapshot()
			if len(bs) != min(kb, len(offeredB)) {
				t.Fatalf("folded collector snapshot holds %d, want %d", len(bs), min(kb, len(offeredB)))
			}
			a.Fold(b)
			// Which of the ties at the k-th distance o keeps is open, so
			// only its distances are pinned.
			if got := b.Snapshot(); !slices.EqualFunc(got, bs, func(x, y Result) bool { return x.Distance == y.Distance }) {
				t.Fatalf("Fold changed the folded collector: %v, then %v", bs, got)
			}
			offeredA = append(offeredA, offeredB[:len(bs)]...)
			slices.SortFunc(offeredA, byDist)
		}
		want := offeredA[:min(ka, len(offeredA))]
		w, set := a.Worst()
		if set != (len(offeredA) >= ka) || a.Len() != len(want) {
			t.Fatalf("k %d, %d admissible: bound set %v, Len %d", ka, len(offeredA), set, a.Len())
		}
		snap := a.Snapshot()
		got := a.Results()
		if !slices.Equal(snap, got) {
			t.Fatalf("Snapshot %v, Results %v", snap, got)
		}
		if len(got) != len(want) {
			t.Fatalf("k %d: %d results, want %d", ka, len(got), len(want))
		}
		for i, r := range got {
			if r.Distance != want[i].Distance {
				t.Fatalf("rank %d: distance %v, want %v (got %v)", i, r.Distance, want[i].Distance, got)
			}
			if d, ok := byID[r.ID]; !ok || math.Float32bits(d) != math.Float32bits(r.Distance) {
				t.Fatalf("rank %d: %v was never offered", i, r)
			}
			if i > 0 && (r.Distance < got[i-1].Distance || r.Distance == got[i-1].Distance && r.ID <= got[i-1].ID) {
				t.Fatalf("results out of (distance, ID) order at %d: %v", i, got)
			}
		}
		if set && len(got) > 0 && !(got[len(got)-1].Distance <= w) {
			t.Fatalf("bound %v below the k-th distance %v", w, got[len(got)-1].Distance)
		}
		if a.Len() != 0 || a.set {
			t.Fatal("Results did not empty the collector")
		}
	})
}

// BenchmarkCollect times one query's collection: the candidates offered
// in 256-row blocks of uniform random distances, then Results.
func BenchmarkCollect(b *testing.B) {
	for _, c := range []struct{ k, n int }{{10, 65536}, {100, 512}, {100, 4096}} {
		b.Run(fmt.Sprintf("k=%d/n=%d", c.k, c.n), func(b *testing.B) {
			r := rand.New(rand.NewSource(7))
			ds := make([]float32, c.n)
			for i := range ds {
				ds[i] = r.Float32()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := GetHeap(c.k)
				for i0 := 0; i0 < c.n; i0 += 256 {
					h.Offer(ds[i0:min(i0+256, c.n)], nil, i0)
				}
				if len(h.Results()) != c.k {
					b.Fatal("short results")
				}
				PutHeap(h)
			}
		})
	}
}
