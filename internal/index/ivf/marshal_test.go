package ivf

import (
	"bytes"
	"fmt"
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/vec"
)

func TestMarshalRoundTripAllFines(t *testing.T) {
	d := dataset.DeepLike(300, 41)
	qs := dataset.Queries(d, 5, 42)
	for _, fine := range []Fine{FineFlat, FineSQ8, FinePQ} {
		x := buildIVF(t, fine, d, 8)
		blob, err := x.MarshalIndex()
		if err != nil {
			t.Fatalf("%s: %v", fine.name(), err)
		}
		got, err := unmarshalIVF(fine, vec.L2, d.Dim, blob)
		if err != nil {
			t.Fatalf("%s: %v", fine.name(), err)
		}
		p := index.SearchParams{K: 10, Nprobe: 8}
		for qi := 0; qi < 5; qi++ {
			q := qs[qi*d.Dim : (qi+1)*d.Dim]
			want, have := x.Search(q, p), got.Search(q, p)
			if len(want) != len(have) {
				t.Fatalf("%s query %d: %d results after round-trip, want %d", fine.name(), qi, len(have), len(want))
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("%s query %d rank %d: %v != %v", fine.name(), qi, i, have[i], want[i])
				}
			}
		}
	}
}

// TestUnmarshalCorruptedBlobAllFines: every truncation and bit flip of a
// valid IVF blob must decode to an error or to an index that searches
// without panicking — corrupted bucket sizes, codebook lengths or code
// arrays must never turn into out-of-bounds scans.
func TestUnmarshalCorruptedBlobAllFines(t *testing.T) {
	d := dataset.DeepLike(60, 43)
	q := dataset.Queries(d, 1, 44)
	for _, fine := range []Fine{FineFlat, FineSQ8, FinePQ} {
		x := buildIVF(t, fine, d, 4)
		blob, err := x.MarshalIndex()
		if err != nil {
			t.Fatal(err)
		}
		try := func(what string, off int, data []byte) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: %s at offset %d: panic: %v", fine.name(), what, off, r)
				}
			}()
			idx, err := unmarshalIVF(fine, vec.L2, d.Dim, data)
			if err != nil {
				return
			}
			idx.Search(q, index.SearchParams{K: 5, Nprobe: 4})
		}
		for cut := 0; cut < len(blob); cut++ {
			try("truncation", cut, blob[:cut])
		}
		if _, err := unmarshalIVF(fine, vec.L2, d.Dim, nil); err == nil {
			t.Fatalf("%s: empty blob accepted", fine.name())
		}
		mut := make([]byte, len(blob))
		for off := 0; off < len(blob); off++ {
			for _, bit := range []byte{0x01, 0x80} {
				copy(mut, blob)
				mut[off] ^= bit
				try("bit flip", off, mut)
			}
		}
	}
}

// TestUnmarshalWrongFineRejected: a blob written by one fine quantizer must
// not decode under another's unmarshaler.
func TestUnmarshalWrongFineRejected(t *testing.T) {
	d := dataset.DeepLike(100, 45)
	x := buildIVF(t, FineFlat, d, 4)
	blob, err := x.MarshalIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, fine := range []Fine{FineSQ8, FinePQ} {
		if _, err := unmarshalIVF(fine, vec.L2, d.Dim, blob); err == nil {
			t.Errorf("%s accepted a %s blob", fine.name(), FineFlat.name())
		}
	}
	// And via the public registry path with a wrong dim.
	if _, err := index.Unmarshal(fmt.Sprintf("%s", FineFlat.name()), vec.L2, d.Dim+1, blob); err == nil {
		t.Error("wrong dim accepted through registry unmarshal")
	}
}

// TestBlobByteOrderPathsAgree: the whole-array copies of a little-endian
// host and the per-element path of a big-endian one write the same bytes
// and decode them to the same index, both reject truncated blobs, and
// MarshalIndex sizes its buffer exactly once.
func TestBlobByteOrderPathsAgree(t *testing.T) {
	if !hostLE {
		t.Skip("the whole-array path runs only on little-endian hosts")
	}
	defer func() { hostLE = true }()
	d := dataset.DeepLike(300, 46)
	for _, fine := range []Fine{FineFlat, FineSQ8, FinePQ} {
		x := buildIVF(t, fine, d, 8)
		hostLE = true
		fast, err := x.MarshalIndex()
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != cap(fast) {
			t.Errorf("%s: blob of %d bytes in a buffer of %d", fine.name(), len(fast), cap(fast))
		}
		hostLE = false
		slow, err := x.MarshalIndex()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fast, slow) {
			t.Fatalf("%s: per-element blob differs from the whole-array one", fine.name())
		}
		for _, le := range []bool{true, false} {
			hostLE = le
			y, err := unmarshalIVF(fine, vec.L2, d.Dim, fast)
			if err != nil {
				t.Fatalf("%s little-endian=%v: %v", fine.name(), le, err)
			}
			for _, cut := range []int{len(fast) - 1, len(fast) / 2, 40} {
				if _, err := unmarshalIVF(fine, vec.L2, d.Dim, fast[:cut]); err == nil {
					t.Fatalf("%s little-endian=%v: blob cut to %d bytes accepted", fine.name(), le, cut)
				}
			}
			hostLE = true
			again, err := y.(*IVF).MarshalIndex()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, fast) {
				t.Fatalf("%s little-endian=%v: decoded index re-marshals differently", fine.name(), le)
			}
		}
	}
}
