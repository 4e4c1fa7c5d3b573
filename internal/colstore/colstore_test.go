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
	c2, err := UnmarshalVectorColumn(col.Marshal())
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := UnmarshalVectorColumn([]byte{1, 2}); err == nil {
		t.Error("short data accepted")
	}
	b := NewVectorColumn(2, []float32{1, 2}).Marshal()
	b[0] ^= 0xFF
	if _, err := UnmarshalVectorColumn(b); err == nil {
		t.Error("bad magic accepted")
	}
	NewVectorColumn(2, []float32{1, 2, 3})
}

func TestPackUnpackFields(t *testing.T) {
	f0 := NewVectorColumn(2, []float32{1, 2, 3, 4})
	f1 := NewVectorColumn(3, []float32{5, 6, 7, 8, 9, 10})
	packed, err := PackFields([]*VectorColumn{f0, f1})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := UnpackFields(packed)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0].Dim != 2 || fields[1].Dim != 3 {
		t.Fatalf("fields = %+v", fields)
	}
	if fields[1].Row(1)[2] != 10 {
		t.Fatal("field data corrupted")
	}
}

func TestPackFieldsErrors(t *testing.T) {
	if _, err := PackFields(nil); err == nil {
		t.Error("empty pack accepted")
	}
	f0 := NewVectorColumn(2, []float32{1, 2})
	f1 := NewVectorColumn(2, []float32{1, 2, 3, 4})
	if _, err := PackFields([]*VectorColumn{f0, f1}); err == nil {
		t.Error("row mismatch accepted")
	}
	if _, err := UnpackFields([]byte{1}); err == nil {
		t.Error("short unpack accepted")
	}
}

func TestIDColumnRoundTrip(t *testing.T) {
	ids := []int64{1, -2, 1 << 40}
	got, err := UnmarshalIDs(MarshalIDs(ids))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("ids = %v", got)
		}
	}
	if _, err := UnmarshalIDs([]byte{0}); err == nil {
		t.Error("short ids accepted")
	}
	if _, err := UnmarshalIDs(MarshalIDs(ids)[:10]); err == nil {
		t.Error("truncated ids accepted")
	}
}
