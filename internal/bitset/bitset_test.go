package bitset

import (
	"math/rand"
	"testing"
)

func TestSetTestClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		b := New(n)
		for i := 0; i < n; i++ {
			if b.Test(i) {
				t.Fatalf("n=%d: bit %d set in fresh bitset", n, i)
			}
		}
		for i := 0; i < n; i += 3 {
			b.Set(i)
		}
		for i := 0; i < n; i++ {
			if got, want := b.Test(i), i%3 == 0; got != want {
				t.Fatalf("n=%d: Test(%d)=%v want %v", n, i, got, want)
			}
		}
		if got, want := b.Count(), (n+2)/3; got != want {
			t.Fatalf("n=%d: Count=%d want %d", n, got, want)
		}
		for i := 0; i < n; i += 3 {
			b.Clear(i)
		}
		if b.Count() != 0 {
			t.Fatalf("n=%d: Count=%d after clearing all", n, b.Count())
		}
	}
}

func TestSetWord(t *testing.T) {
	b := New(70)
	b.SetWord(0, 1<<0|1<<63)
	b.SetWord(1, ^uint64(0)) // bits 64..69 valid, rest must be discarded
	for i := 0; i < 70; i++ {
		want := i == 0 || i == 63 || i >= 64
		if b.Test(i) != want {
			t.Fatalf("Test(%d)=%v want %v", i, b.Test(i), want)
		}
	}
	if got, want := b.Count(), 2+6; got != want {
		t.Fatalf("Count=%d want %d (tail bits not masked?)", got, want)
	}
	b.SetWord(0, 1<<7) // OR semantics: existing bits survive
	if !b.Test(0) || !b.Test(7) {
		t.Fatal("SetWord overwrote instead of ORing")
	}
}

func TestTestOutOfRange(t *testing.T) {
	b := New(70)
	if b.Test(-1) || b.Test(70) || b.Test(1<<30) {
		t.Fatal("out-of-range Test must be false")
	}
	var nilSet *Bitset
	if nilSet.Test(0) {
		t.Fatal("nil bitset Test must be false")
	}
}

func TestCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := New(300)
	set := map[int]bool{}
	for i := 0; i < 150; i++ {
		p := rng.Intn(300)
		b.Set(p)
		set[p] = true
	}
	for trial := 0; trial < 200; trial++ {
		lo, hi := rng.Intn(310)-5, rng.Intn(310)-5
		want := 0
		for p := range set {
			if p >= lo && p < hi {
				want++
			}
		}
		if got := b.CountRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d,%d)=%d want %d", lo, hi, got, want)
		}
	}
}

func TestBooleanOps(t *testing.T) {
	const n = 200
	a, b := New(n), New(n)
	for i := 0; i < n; i += 2 {
		a.Set(i)
	}
	for i := 0; i < n; i += 3 {
		b.Set(i)
	}

	and := New(n) // each result starts as a copy of a: ∅ ∪ a
	and.Or(a)
	and.And(b)
	or := New(n)
	or.Or(a)
	or.Or(b)
	not := New(n)
	not.Or(a)
	not.Complement()

	for i := 0; i < n; i++ {
		ai, bi := i%2 == 0, i%3 == 0
		if and.Test(i) != (ai && bi) {
			t.Fatalf("And bit %d", i)
		}
		if or.Test(i) != (ai || bi) {
			t.Fatalf("Or bit %d", i)
		}
		if not.Test(i) != !ai {
			t.Fatalf("Complement bit %d", i)
		}
	}
}

func TestComplementMasksTail(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 100} {
		b := New(n)
		b.Complement()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: Complement of empty has Count=%d want %d", n, got, n)
		}
		b.Complement()
		if got := b.Count(); got != 0 {
			t.Fatalf("n=%d: double Complement has Count=%d want 0", n, got)
		}
		b.SetAll()
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: SetAll Count=%d want %d", n, got, n)
		}
	}
}

func TestNextSet(t *testing.T) {
	b := New(200)
	for _, p := range []int{0, 1, 63, 64, 65, 130, 199} {
		b.Set(p)
	}
	want := []int{0, 1, 63, 64, 65, 130, 199}
	got := []int{}
	for i := b.NextSet(0); i >= 0; i = b.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk %v want %v", got, want)
		}
	}
	if b.NextSet(200) != -1 || New(0).NextSet(0) != -1 {
		t.Fatal("NextSet past end must be -1")
	}
}

// runs collects all maximal runs via NextRun.
func runs(b *Bitset) [][2]int {
	var out [][2]int
	for i := 0; ; {
		s, e, ok := b.NextRun(i)
		if !ok {
			return out
		}
		out = append(out, [2]int{s, e})
		i = e
	}
}

func TestNextRun(t *testing.T) {
	cases := []struct {
		n    int
		set  [][2]int // [start,end) ranges to set
		want [][2]int
	}{
		{n: 0, set: nil, want: nil},
		{n: 100, set: nil, want: nil},
		{n: 100, set: [][2]int{{0, 100}}, want: [][2]int{{0, 100}}},
		{n: 100, set: [][2]int{{5, 6}, {10, 20}, {99, 100}}, want: [][2]int{{5, 6}, {10, 20}, {99, 100}}},
		// Word-boundary crossings.
		{n: 200, set: [][2]int{{60, 70}, {120, 192}}, want: [][2]int{{60, 70}, {120, 192}}},
		{n: 64, set: [][2]int{{0, 64}}, want: [][2]int{{0, 64}}},
		{n: 65, set: [][2]int{{63, 65}}, want: [][2]int{{63, 65}}},
		// Adjacent ranges coalesce into one run.
		{n: 130, set: [][2]int{{10, 64}, {64, 128}}, want: [][2]int{{10, 128}}},
	}
	for ci, c := range cases {
		b := New(c.n)
		for _, r := range c.set {
			for i := r[0]; i < r[1]; i++ {
				b.Set(i)
			}
		}
		got := runs(b)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: runs=%v want %v", ci, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("case %d: runs=%v want %v", ci, got, c.want)
			}
		}
	}
}

func TestResetReusesBacking(t *testing.T) {
	b := Get(1024)
	b.Set(1000)
	Put(b)
	c := Get(512)
	if c.Count() != 0 {
		t.Fatal("pooled bitset not cleared by Get")
	}
	if c.Len() != 512 {
		t.Fatalf("pooled bitset Len=%d want 512", c.Len())
	}
	Put(c)
}

func TestGetPutAllocs(t *testing.T) {
	// Warm the pool, then Get/Put of an equal-or-smaller size must not
	// allocate: the whole point is one bitset allocation per process, not
	// per query.
	Put(Get(4096))
	n := testing.AllocsPerRun(100, func() {
		b := Get(4096)
		b.Set(1)
		Put(b)
	})
	if n > 0 {
		t.Fatalf("Get/Put allocs/op = %v, want 0", n)
	}
}
