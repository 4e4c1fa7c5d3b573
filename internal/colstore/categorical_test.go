package colstore

import (
	"testing"
	"testing/quick"
)

func TestCategoricalColumnBasics(t *testing.T) {
	values := []string{"shirt", "shoe", "shirt", "hat", "shoe", "shirt"}
	c := BuildCategoricalColumn(values, nil)
	if c.Len() != 6 || c.Cardinality() != 3 {
		t.Fatalf("len=%d card=%d", c.Len(), c.Cardinality())
	}
	got := c.Values()
	want := []string{"hat", "shirt", "shoe"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Values = %v", got)
		}
	}
	rows := c.Rows("shirt")
	if len(rows) != 3 || rows[0] != 0 || rows[1] != 2 || rows[2] != 5 {
		t.Fatalf("Rows(shirt) = %v", rows)
	}
	if c.Count("shirt", "hat") != 4 {
		t.Fatalf("Count = %d", c.Count("shirt", "hat"))
	}
	if c.Rows("missing") != nil || c.Positions("missing") != nil {
		t.Fatal("missing value returned postings")
	}
}

func TestCategoricalCustomIDs(t *testing.T) {
	c := BuildCategoricalColumn([]string{"a", "b", "a"}, []int64{10, 20, 30})
	rows := c.Rows("a")
	if len(rows) != 2 || rows[0] != 10 || rows[1] != 30 {
		t.Fatalf("Rows = %v", rows)
	}
}

// Postings are sorted by row ID whatever order the IDs were built in, and
// each carries the build position its value came from.
func TestCategoricalPositions(t *testing.T) {
	values := []string{"x", "", "日本語", "x", "x"}
	ids := []int64{40, 30, 20, 10, 25}
	c := BuildCategoricalColumn(values, ids)
	for _, v := range c.Values() {
		rows, pos := c.Rows(v), c.Positions(v)
		if len(rows) != len(pos) || len(rows) == 0 {
			t.Fatalf("%q: %d rows, %d positions", v, len(rows), len(pos))
		}
		for i, p := range pos {
			if values[p] != v || ids[p] != rows[i] {
				t.Fatalf("%q: posting %d = row %d at position %d", v, i, rows[i], p)
			}
			if i > 0 && rows[i-1] >= rows[i] {
				t.Fatalf("%q: postings not sorted: %v", v, rows)
			}
		}
	}
	if got := c.Positions("x"); len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 0 {
		t.Fatalf("Positions(x) = %v, want [3 4 0]", got)
	}
}

func TestStringsRoundTrip(t *testing.T) {
	f := func(values []string) bool {
		got, err := UnmarshalStrings(MarshalStrings(values))
		if err != nil || len(got) != len(values) {
			return false
		}
		for i := range values {
			if got[i] != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if _, err := UnmarshalStrings([]byte{1}); err == nil {
		t.Error("short strings blob accepted")
	}
	b := MarshalStrings([]string{"abc"})
	if _, err := UnmarshalStrings(b[:len(b)-1]); err == nil {
		t.Error("truncated strings blob accepted")
	}
	if _, err := UnmarshalStrings(append(b, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// A count the bytes cannot hold is rejected before anything is
	// allocated for it.
	if _, err := UnmarshalStrings([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err == nil {
		t.Error("oversized count accepted")
	}
}
