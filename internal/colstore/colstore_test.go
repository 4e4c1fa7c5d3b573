package colstore

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAttributeColumnRangeRows(t *testing.T) {
	values := []int64{50, 10, 30, 20, 40}
	c := BuildAttributeColumn(values, nil)
	got := c.RangeRows(20, 40)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{2, 3, 4} // rows of 30, 20, 40
	if len(got) != len(want) {
		t.Fatalf("RangeRows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RangeRows = %v, want %v", got, want)
		}
	}
	if rows := c.RangeRows(100, 200); rows != nil {
		t.Fatalf("out-of-range query returned %v", rows)
	}
	if rows := c.RangeRows(40, 20); rows != nil {
		t.Fatalf("inverted range returned %v", rows)
	}
}

func TestAttributeColumnCustomIDs(t *testing.T) {
	c := BuildAttributeColumn([]int64{5, 1}, []int64{100, 200})
	rows := c.RangeRows(1, 1)
	if len(rows) != 1 || rows[0] != 200 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestAttributeColumnSkipPointers(t *testing.T) {
	n := PageSize*3 + 17
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i)
	}
	c := BuildAttributeColumn(values, nil)
	if c.Pages() != 4 {
		t.Fatalf("Pages = %d, want 4", c.Pages())
	}
	// Skip pointers must be exact page min/max of the sorted entries.
	for p := 0; p < c.Pages(); p++ {
		lo, hi := c.PageBounds(p)
		wantLo := int64(p * PageSize)
		wantHi := int64((p+1)*PageSize - 1)
		if p == c.Pages()-1 {
			wantHi = int64(n - 1)
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("page %d bounds (%d,%d), want (%d,%d)", p, lo, hi, wantLo, wantHi)
		}
	}
	if mn, mx, ok := c.MinMax(); !ok || mn != 0 || mx != int64(n-1) {
		t.Fatalf("MinMax = %d,%d,%v", mn, mx, ok)
	}
}

func TestAttributeColumnEmptyAndCount(t *testing.T) {
	c := BuildAttributeColumn(nil, nil)
	if c.Len() != 0 || c.RangeRows(0, 10) != nil || c.CountRange(0, 10) != 0 {
		t.Fatal("empty column misbehaves")
	}
	if _, _, ok := c.MinMax(); ok {
		t.Fatal("MinMax on empty column reported ok")
	}
}

// Property: RangeRows equals a naive filter, and CountRange equals its size.
func TestAttributeColumnRangeProperty(t *testing.T) {
	f := func(seed int64, loRaw, hiRaw int16) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(PageSize * 3)
		values := make([]int64, n)
		for i := range values {
			values[i] = int64(r.Intn(1000))
		}
		lo, hi := int64(loRaw%1000), int64(hiRaw%1000)
		c := BuildAttributeColumn(values, nil)
		got := c.RangeRows(lo, hi)
		var want []int64
		for i, v := range values {
			if v >= lo && v <= hi {
				want = append(want, int64(i))
			}
		}
		if len(got) != len(want) || c.CountRange(lo, hi) != len(want) {
			return false
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVectorColumnRoundTrip(t *testing.T) {
	col := NewVectorColumn(3, []float32{1, 2, 3, 4, 5, 6})
	if col.Rows() != 2 {
		t.Fatalf("Rows = %d", col.Rows())
	}
	if got := col.Row(1); got[0] != 4 || got[2] != 6 {
		t.Fatalf("Row(1) = %v", got)
	}
	// A column is stored as a vector extent of a segment image.
	buf, err := EncodeSegmentFile(1, []Extent{{
		Kind: ExtentVectors, Rows: uint64(col.Rows()), Dim: uint32(col.Dim),
		Payload: FloatsToBytes(col.Data),
	}})
	if err != nil {
		t.Fatal(err)
	}
	sf, err := DecodeSegmentFile(buf)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewVectorColumn(col.Dim, sf.Find(ExtentVectors, 0).Floats())
	for i := range col.Data {
		if col.Data[i] != c2.Data[i] {
			t.Fatal("round trip mismatch")
		}
	}
}

func TestVectorColumnErrors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ragged column did not panic")
		}
	}()
	NewVectorColumn(2, []float32{1, 2, 3})
}

// TestIDColumnRoundTrip: row IDs and attribute values are both raw
// little-endian int64 extents, and a length-prefixed payload of the kind
// earlier encoders wrote is rejected by the shape check.
func TestIDColumnRoundTrip(t *testing.T) {
	ids := []int64{1, -2, 1 << 40}
	for _, kind := range []uint32{ExtentIDs, ExtentAttr} {
		buf, err := EncodeSegmentFile(1, []Extent{{Kind: kind, Rows: uint64(len(ids)), Payload: Int64sToBytes(ids)}})
		if err != nil {
			t.Fatal(err)
		}
		sf, err := DecodeSegmentFile(buf)
		if err != nil {
			t.Fatal(err)
		}
		got := sf.Find(kind, 0).Int64s()
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("kind %d: ids = %v", kind, got)
			}
		}
		prefixed := append([]byte{3, 0, 0, 0}, Int64sToBytes(ids)...)
		if _, err := EncodeSegmentFile(1, []Extent{{Kind: kind, Rows: uint64(len(ids)), Payload: prefixed}}); err == nil {
			t.Errorf("kind %d: length-prefixed payload accepted", kind)
		}
		if _, err := EncodeSegmentFile(1, []Extent{{Kind: kind, Rows: uint64(len(ids)), Dim: 1, Payload: Int64sToBytes(ids)}}); err == nil {
			t.Errorf("kind %d: dim 1 accepted", kind)
		}
	}
}
