package bitset

import (
	"testing"
)

// FuzzOps cross-checks the word-level bitset against a naive map[int]bool
// model: the fuzzer drives an op tape (set/clear/and/or/andnot/complement/
// setword)
// over two sets whose length is fuzz-chosen to land on and around word
// boundaries, then compares every bit, Count, CountRange, CountAt,
// AppendSet, NextSet and the extracted run list.
func FuzzOps(f *testing.F) {
	f.Add(uint16(64), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint16(65), []byte{0, 10, 0, 64, 3, 5, 1, 10})
	f.Add(uint16(1), []byte{0, 0, 5})
	f.Add(uint16(200), []byte{0, 100, 2, 0, 199, 4, 3})
	f.Fuzz(func(t *testing.T, nRaw uint16, tape []byte) {
		n := int(nRaw) % 300 // keep the model loop cheap
		a, b := New(n), New(n)
		ma, mb := map[int]bool{}, map[int]bool{}

		pos := func(raw byte) int {
			if n == 0 {
				return 0
			}
			return int(raw) % n
		}
		for i := 0; i < len(tape); i++ {
			op := tape[i] % 7
			switch op {
			case 0, 1: // set / clear on a
				if i+1 >= len(tape) || n == 0 {
					continue
				}
				i++
				p := pos(tape[i])
				if op == 0 {
					a.Set(p)
					ma[p] = true
				} else {
					a.Clear(p)
					delete(ma, p)
				}
			case 2: // set on b
				if i+1 >= len(tape) || n == 0 {
					continue
				}
				i++
				p := pos(tape[i])
				b.Set(p)
				mb[p] = true
			case 3: // a &= b
				a.And(b)
				for p := range ma {
					if !mb[p] {
						delete(ma, p)
					}
				}
			case 4: // a |= b
				a.Or(b)
				for p := range mb {
					ma[p] = true
				}
			case 5: // a = ^a
				a.Complement()
				next := map[int]bool{}
				for p := 0; p < n; p++ {
					if !ma[p] {
						next[p] = true
					}
				}
				ma = next
			case 6: // SetWord on a, built from the next tape byte
				if i+1 >= len(tape) || n == 0 {
					continue
				}
				i++
				wi := int(tape[i]) % ((n + 63) / 64)
				// Spread the byte across the word so high bit positions
				// (including past-Len tail bits) get exercised.
				w := uint64(tape[i]) * 0x0101010101010101
				a.SetWord(wi, w)
				for bit := 0; bit < 64; bit++ {
					if p := wi*64 + bit; p < n && w&(1<<uint(bit)) != 0 {
						ma[p] = true
					}
				}
			}
		}

		// Bit-for-bit equality with the model.
		for p := 0; p < n; p++ {
			if a.Test(p) != ma[p] {
				t.Fatalf("bit %d: got %v want %v", p, a.Test(p), ma[p])
			}
		}
		if a.Count() != len(ma) {
			t.Fatalf("Count=%d want %d", a.Count(), len(ma))
		}
		// CountRange over a few windows including word boundaries.
		for _, win := range [][2]int{{0, n}, {0, n / 2}, {n / 3, n}, {63, 65}, {64, 128}} {
			want := 0
			for p := range ma {
				if p >= win[0] && p < win[1] {
					want++
				}
			}
			if got := a.CountRange(win[0], win[1]); got != want {
				t.Fatalf("CountRange(%d,%d)=%d want %d", win[0], win[1], got, want)
			}
		}
		// CountAt and AppendSet at every third position, in descending
		// order (positions need not be sorted), after a non-empty prefix.
		var at []int32
		for p := n - 1; p >= 0; p -= 3 {
			at = append(at, int32(p))
		}
		wantAt, list := 0, a.AppendSet([]int32{-1}, at, 7)
		for i, p := range at {
			if ma[int(p)] {
				if wantAt+1 >= len(list) || list[wantAt+1] != int32(7+i) {
					t.Fatalf("AppendSet=%v: entry %d is not %d", list, wantAt+1, 7+i)
				}
				wantAt++
			}
		}
		if got := a.CountAt(at); got != wantAt || len(list) != wantAt+1 || list[0] != -1 {
			t.Fatalf("CountAt=%d, AppendSet=%v, want %d set positions", got, list, wantAt)
		}
		// NextSet walk must enumerate exactly the model's set positions
		// in order.
		seen := 0
		prev := -1
		for p := a.NextSet(0); p >= 0; p = a.NextSet(p + 1) {
			if !ma[p] || p <= prev {
				t.Fatalf("NextSet yielded %d (model=%v, prev=%d)", p, ma[p], prev)
			}
			prev = p
			seen++
		}
		if seen != len(ma) {
			t.Fatalf("NextSet walk found %d bits, model has %d", seen, len(ma))
		}
		// Run extraction must tile the set bits exactly: maximal, ordered,
		// non-adjacent, and their union equals the set.
		covered := 0
		prevEnd := -2
		for i := 0; ; {
			s, e, ok := a.NextRun(i)
			if !ok {
				break
			}
			if s >= e || e > n {
				t.Fatalf("bad run [%d,%d)", s, e)
			}
			if s <= prevEnd {
				t.Fatalf("run [%d,%d) overlaps or touches previous end %d (not maximal)", s, e, prevEnd)
			}
			for p := s; p < e; p++ {
				if !ma[p] {
					t.Fatalf("run [%d,%d) covers clear bit %d", s, e, p)
				}
			}
			if ma[s-1] || (e < n && ma[e]) {
				t.Fatalf("run [%d,%d) not maximal", s, e)
			}
			covered += e - s
			prevEnd = e
			i = e
		}
		if covered != len(ma) {
			t.Fatalf("runs cover %d bits, model has %d", covered, len(ma))
		}
	})
}
