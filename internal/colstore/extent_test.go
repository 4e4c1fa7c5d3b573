package colstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// testExtents builds a representative extent set: IDs, a vector column,
// SQ8 codes + params and an attribute column.
func testExtents(rows, dim int) []Extent {
	ids := make([]int64, rows)
	vecs := make([]float32, rows*dim)
	codes := make([]byte, rows*dim)
	params := make([]float32, 2*dim)
	attrs := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(1000 + i)
		attrs[i] = int64(-7 * i)
	}
	for i := range vecs {
		vecs[i] = float32(i)*0.25 - 3
	}
	for i := range codes {
		codes[i] = byte(i * 7)
	}
	for i := range params {
		params[i] = float32(i) * 0.5
	}
	return []Extent{
		{Kind: ExtentIDs, Rows: uint64(rows), Payload: Int64sToBytes(ids)},
		{Kind: ExtentVectors, Field: 0, Rows: uint64(rows), Dim: uint32(dim), Payload: FloatsToBytes(vecs)},
		{Kind: ExtentSQ8Codes, Field: 0, Rows: uint64(rows), Dim: uint32(dim), Payload: codes},
		{Kind: ExtentSQ8Params, Field: 0, Rows: 2, Dim: uint32(dim), Payload: FloatsToBytes(params)},
		{Kind: ExtentAttr, Field: 1, Rows: uint64(rows), Payload: Int64sToBytes(attrs)},
	}
}

func TestExtentRoundTrip(t *testing.T) {
	rows, dim := 37, 8
	exts := testExtents(rows, dim)
	buf, err := EncodeSegmentFile(42, exts)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	sf, err := DecodeSegmentFile(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sf.SegID != 42 || len(sf.Extents) != len(exts) {
		t.Fatalf("header mismatch: segID=%d count=%d", sf.SegID, len(sf.Extents))
	}
	if err := sf.VerifyChecksums(); err != nil {
		t.Fatalf("checksums: %v", err)
	}
	ve := sf.Find(ExtentVectors, 0)
	if ve == nil {
		t.Fatal("vector extent missing")
	}
	got := ve.Floats()
	if len(got) != rows*dim {
		t.Fatalf("vector view length %d, want %d", len(got), rows*dim)
	}
	for i, x := range got {
		if want := float32(i)*0.25 - 3; x != want {
			t.Fatalf("vector[%d] = %g, want %g", i, x, want)
		}
	}
	ie := sf.Find(ExtentIDs, 0)
	if ie == nil {
		t.Fatal("id extent missing")
	}
	ids := ie.Int64s()
	if len(ids) != rows || ids[0] != 1000 || ids[rows-1] != int64(999+rows) {
		t.Fatalf("id view wrong: len=%d first=%d last=%d", len(ids), ids[0], ids[len(ids)-1])
	}
	ae := sf.Find(ExtentAttr, 1)
	if ae == nil {
		t.Fatal("attr extent missing")
	}
	if attrs := ae.Int64s(); len(attrs) != rows || attrs[rows-1] != int64(-7*(rows-1)) {
		t.Fatalf("attr view wrong: %v", attrs)
	}
}

func TestExtentMappedOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg-7.segx")
	rows, dim := 300, 16 // crosses a 256-row block boundary
	buf, err := EncodeSegmentFile(7, testExtents(rows, dim))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := WriteFileAtomic(path, buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	mf, err := OpenSegmentFile(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer mf.Close()
	if mf.SegID != 7 {
		t.Fatalf("segID %d", mf.SegID)
	}
	if err := mf.VerifyChecksums(); err != nil {
		t.Fatalf("checksums: %v", err)
	}
	ve := mf.Find(ExtentVectors, 0)
	vv := ve.Floats()
	for i := 0; i < rows*dim; i += 997 {
		if want := float32(i)*0.25 - 3; vv[i] != want {
			t.Fatalf("mapped vector[%d] = %g, want %g", i, vv[i], want)
		}
	}
	if err := mf.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := mf.Close(); err != nil { // double close is a no-op
		t.Fatalf("second close: %v", err)
	}
}

func TestExtentBadMagic(t *testing.T) {
	buf, _ := EncodeSegmentFile(1, testExtents(4, 4))
	buf[0] ^= 0xff
	if _, err := DecodeSegmentFile(buf); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A torn header — fewer bytes than the fixed header — must also fail.
	if _, err := DecodeSegmentFile(buf[:extentHdrSize-1]); err == nil {
		t.Fatal("torn header accepted")
	}
}

func TestExtentTruncated(t *testing.T) {
	buf, _ := EncodeSegmentFile(1, testExtents(64, 8))
	// Truncate at every structural boundary: inside the directory, right
	// after it, and inside the last payload (a short mmap after a torn
	// write). All must be rejected at decode.
	for _, cut := range []int{extentHdrSize + 3, extentHdrSize + extentEntrySize*2, len(buf) / 2, len(buf) - 1} {
		if _, err := DecodeSegmentFile(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestExtentTruncatedFileOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg.segx")
	buf, _ := EncodeSegmentFile(9, testExtents(64, 8))
	if err := os.WriteFile(path, buf[:len(buf)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentFile(path); err == nil {
		t.Fatal("truncated file opened successfully")
	}
	// Sub-header file: rejected before mapping is attempted.
	if err := os.WriteFile(path, buf[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegmentFile(path); err == nil {
		t.Fatal("sub-header file opened successfully")
	}
}

func TestExtentDirectoryCorruption(t *testing.T) {
	fresh := func() []byte {
		buf, _ := EncodeSegmentFile(1, testExtents(16, 4))
		return buf
	}
	entry := func(buf []byte, i int) []byte { return buf[extentHdrSize+extentEntrySize*i:] }

	// Length-prefix overflow: length near MaxUint64 so offset+length wraps.
	buf := fresh()
	binary.LittleEndian.PutUint64(entry(buf, 0)[16:], ^uint64(0)-32)
	if _, err := DecodeSegmentFile(buf); err == nil {
		t.Fatal("length overflow accepted")
	}

	// Offset past EOF.
	buf = fresh()
	binary.LittleEndian.PutUint64(entry(buf, 0)[8:], uint64(len(buf)+extentAlign))
	if _, err := DecodeSegmentFile(buf); err == nil {
		t.Fatal("out-of-bounds offset accepted")
	}

	// Misaligned offset breaks the in-place float view contract.
	buf = fresh()
	off := binary.LittleEndian.Uint64(entry(buf, 1)[8:])
	binary.LittleEndian.PutUint64(entry(buf, 1)[8:], off+4)
	if _, err := DecodeSegmentFile(buf); err == nil {
		t.Fatal("misaligned offset accepted")
	}

	// rows*dim overflow in a vector-shaped entry.
	buf = fresh()
	binary.LittleEndian.PutUint64(entry(buf, 1)[24:], 1<<62)
	binary.LittleEndian.PutUint32(entry(buf, 1)[32:], 1<<30)
	if _, err := DecodeSegmentFile(buf); err == nil {
		t.Fatal("rows*dim overflow accepted")
	}

	// Unknown kind.
	buf = fresh()
	binary.LittleEndian.PutUint32(entry(buf, 0)[0:], 999)
	if _, err := DecodeSegmentFile(buf); err == nil {
		t.Fatal("unknown kind accepted")
	}

	// Inflated extent count walks the directory off the end of the file.
	buf = fresh()
	binary.LittleEndian.PutUint32(buf[16:], 1<<19)
	if _, err := DecodeSegmentFile(buf); err == nil {
		t.Fatal("inflated count accepted")
	}

	// Flipped payload byte survives decode but fails checksum verify.
	buf = fresh()
	sf, err := DecodeSegmentFile(buf)
	if err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	sf.Extents[1].Payload[5] ^= 0x40
	if err := sf.VerifyChecksums(); err == nil {
		t.Fatal("corrupted payload passed checksum verification")
	}
}

func TestExtentShapeValidation(t *testing.T) {
	// Vector extent whose length disagrees with rows*dim*4.
	bad := []Extent{{Kind: ExtentVectors, Rows: 4, Dim: 4, Payload: make([]byte, 60)}}
	if _, err := EncodeSegmentFile(1, bad); err == nil {
		t.Fatal("inconsistent vector shape accepted at encode")
	}
	// dim = 0 vector extent.
	bad = []Extent{{Kind: ExtentVectors, Rows: 4, Dim: 0, Payload: nil}}
	if _, err := EncodeSegmentFile(1, bad); err == nil {
		t.Fatal("dim=0 vector extent accepted")
	}
	// ID extent with stray dim.
	bad = []Extent{{Kind: ExtentIDs, Rows: 2, Dim: 3, Payload: make([]byte, 16)}}
	if _, err := EncodeSegmentFile(1, bad); err == nil {
		t.Fatal("id extent with dim accepted")
	}
}
