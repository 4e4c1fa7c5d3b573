package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"unsafe"
)

// Extent file format ("SEGX"): the one serialised form of a sealed segment
// — the same image is its object-store copy and its mmap-backed local
// file. One image per segment holds every column — vectors, SQ8 codes,
// row IDs, attributes, categoricals — as separate length-prefixed extents
// behind a single directory, so a scan faults in only the column (and the
// 256-row blocks within it) that it touches. Payloads are 64-byte aligned
// from the start of the file; combined with page-aligned mmap this lets
// float32/int64 columns be viewed in place without a decode copy.
//
// Layout (all little-endian):
//
//	offset  0: magic    u32  "SEGX"
//	offset  4: version  u32  (currently 1)
//	offset  8: segID    u64
//	offset 16: count    u32  directory entries
//	offset 20: reserved u32  (zero)
//	offset 24: directory, count × 40-byte entries:
//	           kind u32 | field u32 | offset u64 | length u64 |
//	           rows u64 | dim u32 | crc32 u32
//	then payloads, each padded so its offset is a multiple of 64.
//
// The decoder validates the directory strictly (magic, version, entry
// bounds, alignment, per-kind length arithmetic with overflow checks);
// payload checksums are verified separately by VerifyChecksums so that a
// plain open does not fault every page of a cold file.
const (
	extentMagic     = uint32(0x58474553) // "SEGX"
	extentVersion   = uint32(1)
	extentHdrSize   = 24
	extentEntrySize = 40
	extentAlign     = 64
	extentMaxCount  = 1 << 20
)

// Extent kinds. Vector-shaped kinds (float32 rows×dim), code-shaped kinds
// (uint8 rows×dim) and int64 kinds (8 bytes a row, dim 0) have their length
// arithmetic validated at decode; the categorical kind is opaque.
const (
	ExtentIDs       = uint32(1) // raw int64 row IDs, length = 8*rows
	ExtentVectors   = uint32(2) // float32 vectors in row order, length = 4*rows*dim
	ExtentSQ8Codes  = uint32(3) // uint8 SQ8 codes in row order, length = rows*dim
	ExtentSQ8Params = uint32(4) // float32 min/scale pairs, rows = 2, length = 8*dim
	ExtentAttr      = uint32(5) // raw int64 attribute values in row order, length = 8*rows
	ExtentCats      = uint32(6) // row-aligned strings in MarshalStrings format (opaque)
	ExtentIVFVecs   = uint32(7) // float32 vectors in IVF build order, length = 4*rows*dim
	ExtentIVFCodes  = uint32(8) // uint8 SQ8 codes in IVF build order, length = rows*dim
)

// Extent is one decoded directory entry plus its payload view. The payload
// aliases the file buffer (or mapping) it was decoded from.
type Extent struct {
	Kind    uint32
	Field   uint32
	Rows    uint64
	Dim     uint32
	CRC     uint32
	Payload []byte
	// Off is the payload's byte offset within the file image. Populated by
	// DecodeSegmentFile (encoding computes its own offsets); block loaders
	// use it to express madvise prefetch hints in file coordinates.
	Off uint64
}

// SegmentFile is a decoded extent file. Extents alias the underlying
// buffer; keep it alive (or the mapping open) while they are in use.
type SegmentFile struct {
	SegID   int64
	Extents []Extent
}

// Find returns the first extent with the given kind and field, or nil.
func (sf *SegmentFile) Find(kind, field uint32) *Extent {
	for i := range sf.Extents {
		e := &sf.Extents[i]
		if e.Kind == kind && e.Field == field {
			return e
		}
	}
	return nil
}

// VerifyChecksums re-hashes every payload against its directory CRC. This
// touches every byte, so it is called on promotion (the bytes just arrived
// from objstore and are hot) and in recovery tests — not on plain open.
func (sf *SegmentFile) VerifyChecksums() error {
	for i := range sf.Extents {
		e := &sf.Extents[i]
		if got := crc32.ChecksumIEEE(e.Payload); got != e.CRC {
			return fmt.Errorf("colstore: extent %d (kind=%d field=%d) checksum mismatch: %08x != %08x",
				i, e.Kind, e.Field, got, e.CRC)
		}
	}
	return nil
}

// hostLittleEndian reports whether in-place reinterpretation of the
// little-endian on-disk layout is valid on this machine.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Floats views a vector-shaped payload as []float32 (rows*dim values). The
// view aliases the file buffer when the host is little-endian and the
// payload is 4-byte aligned (always true for payloads at their encoded
// offsets in a page-aligned mapping); otherwise it decodes into a fresh
// slice.
func (e *Extent) Floats() []float32 {
	n := len(e.Payload) / 4
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&e.Payload[0]))%4 == 0 {
		return unsafe.Slice((*float32)(unsafe.Pointer(&e.Payload[0])), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(e.Payload[4*i:]))
	}
	return out
}

// Int64s views an ID-shaped payload as []int64, aliasing when possible
// (same rules as Floats).
func (e *Extent) Int64s() []int64 {
	n := len(e.Payload) / 8
	if n == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&e.Payload[0]))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(&e.Payload[0])), n)
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(e.Payload[8*i:]))
	}
	return out
}

// FloatsToBytes views a []float32 as its little-endian byte image without
// copying (the inverse of Floats on this architecture). Used to build
// extent payloads from live columns.
func FloatsToBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f))
	}
	out := make([]byte, 4*len(f))
	for i, x := range f {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
	}
	return out
}

// Int64sToBytes views a []int64 as its little-endian byte image without
// copying (inverse of Int64s on this architecture).
func Int64sToBytes(v []int64) []byte {
	if len(v) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))
	}
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
	}
	return out
}

// alignUp rounds n up to the next multiple of extentAlign.
func alignUp(n int) int { return (n + extentAlign - 1) &^ (extentAlign - 1) }

// EncodeSegmentFile builds the on-disk image for a segment's extents. The
// directory records each payload at a 64-byte-aligned offset with its
// IEEE CRC-32; gaps between payloads are zero.
func EncodeSegmentFile(segID int64, extents []Extent) ([]byte, error) {
	if len(extents) > extentMaxCount {
		return nil, fmt.Errorf("colstore: %d extents exceeds maximum", len(extents))
	}
	// The file ends exactly at the last payload byte (no trailing pad), so
	// any torn write that loses data is caught by the directory bounds
	// check at decode.
	total := extentHdrSize + extentEntrySize*len(extents)
	offsets := make([]int, len(extents))
	for i := range extents {
		total = alignUp(total)
		offsets[i] = total
		total += len(extents[i].Payload)
	}
	buf := make([]byte, total)
	binary.LittleEndian.PutUint32(buf[0:], extentMagic)
	binary.LittleEndian.PutUint32(buf[4:], extentVersion)
	binary.LittleEndian.PutUint64(buf[8:], uint64(segID))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(extents)))
	for i := range extents {
		e := &extents[i]
		if err := validateExtentShape(e.Kind, uint64(len(e.Payload)), e.Rows, e.Dim); err != nil {
			return nil, fmt.Errorf("colstore: encode extent %d: %w", i, err)
		}
		d := buf[extentHdrSize+extentEntrySize*i:]
		binary.LittleEndian.PutUint32(d[0:], e.Kind)
		binary.LittleEndian.PutUint32(d[4:], e.Field)
		binary.LittleEndian.PutUint64(d[8:], uint64(offsets[i]))
		binary.LittleEndian.PutUint64(d[16:], uint64(len(e.Payload)))
		binary.LittleEndian.PutUint64(d[24:], e.Rows)
		binary.LittleEndian.PutUint32(d[32:], e.Dim)
		binary.LittleEndian.PutUint32(d[36:], crc32.ChecksumIEEE(e.Payload))
		copy(buf[offsets[i]:], e.Payload)
	}
	return buf, nil
}

// validateExtentShape checks per-kind length arithmetic with explicit
// overflow guards (rows and dim come from an untrusted directory).
func validateExtentShape(kind uint32, length, rows uint64, dim uint32) error {
	elem := uint64(0)
	switch kind {
	case ExtentVectors, ExtentIVFVecs, ExtentSQ8Params:
		elem = 4
	case ExtentSQ8Codes, ExtentIVFCodes:
		elem = 1
	case ExtentIDs, ExtentAttr:
		if dim != 0 || length%8 != 0 || rows != length/8 {
			return fmt.Errorf("int64 extent kind %d shape inconsistent (rows=%d dim=%d len=%d)", kind, rows, dim, length)
		}
		return nil
	case ExtentCats:
		return nil // opaque blob in MarshalStrings format
	default:
		return fmt.Errorf("unknown extent kind %d", kind)
	}
	if dim == 0 {
		return fmt.Errorf("extent kind %d requires dim > 0", kind)
	}
	cells := rows * uint64(dim)
	if rows != 0 && cells/rows != uint64(dim) {
		return fmt.Errorf("extent rows*dim overflows (rows=%d dim=%d)", rows, dim)
	}
	want := cells * elem
	if want/elem != cells || want != length {
		return fmt.Errorf("extent length %d inconsistent with rows=%d dim=%d", length, rows, dim)
	}
	return nil
}

// DecodeSegmentFile parses an extent file image. Extents alias data. The
// directory is validated strictly — bad magic, truncated headers, entries
// whose offset/length overflow or escape the buffer, misaligned payloads
// and inconsistent per-kind shapes are all rejected — so a torn or
// corrupted file fails loudly at open instead of corrupting a scan.
func DecodeSegmentFile(data []byte) (*SegmentFile, error) {
	if len(data) < extentHdrSize {
		return nil, fmt.Errorf("colstore: extent file too short (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != extentMagic {
		return nil, fmt.Errorf("colstore: bad extent file magic %08x", binary.LittleEndian.Uint32(data[0:]))
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != extentVersion {
		return nil, fmt.Errorf("colstore: unsupported extent file version %d", v)
	}
	segID := int64(binary.LittleEndian.Uint64(data[8:]))
	count := binary.LittleEndian.Uint32(data[16:])
	if count > extentMaxCount {
		return nil, fmt.Errorf("colstore: extent count %d exceeds maximum", count)
	}
	dirEnd := extentHdrSize + extentEntrySize*int(count)
	if dirEnd > len(data) {
		return nil, fmt.Errorf("colstore: extent directory truncated (%d entries, %d bytes)", count, len(data))
	}
	sf := &SegmentFile{SegID: segID, Extents: make([]Extent, count)}
	for i := 0; i < int(count); i++ {
		d := data[extentHdrSize+extentEntrySize*i:]
		off := binary.LittleEndian.Uint64(d[8:])
		length := binary.LittleEndian.Uint64(d[16:])
		if off%extentAlign != 0 {
			return nil, fmt.Errorf("colstore: extent %d misaligned offset %d", i, off)
		}
		if off < uint64(dirEnd) || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("colstore: extent %d out of bounds (off=%d len=%d file=%d)", i, off, length, len(data))
		}
		e := Extent{
			Kind:    binary.LittleEndian.Uint32(d[0:]),
			Field:   binary.LittleEndian.Uint32(d[4:]),
			Rows:    binary.LittleEndian.Uint64(d[24:]),
			Dim:     binary.LittleEndian.Uint32(d[32:]),
			CRC:     binary.LittleEndian.Uint32(d[36:]),
			Payload: data[off : off+length : off+length],
			Off:     off,
		}
		if err := validateExtentShape(e.Kind, length, e.Rows, e.Dim); err != nil {
			return nil, fmt.Errorf("colstore: extent %d: %w", i, err)
		}
		sf.Extents[i] = e
	}
	return sf, nil
}

// WriteFileAtomic writes an encoded extent image to path with the temp +
// fsync + rename discipline. Sealing writes the image it just stored in the
// object store, promotion the one it just fetched back: neither re-encodes.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".segx-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// MappedFile is an extent file opened through mmap (or a read-everything
// fallback on platforms without mmap). Extent payloads alias the mapping:
// the caller must keep the MappedFile open while any view is live.
type MappedFile struct {
	*SegmentFile
	data   []byte
	mapped bool
}

// OpenSegmentFile maps path and decodes its directory. The kernel is
// hinted for sequential access (scans walk extents front to back).
func OpenSegmentFile(path string) (*MappedFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < extentHdrSize {
		return nil, fmt.Errorf("colstore: extent file %s too short (%d bytes)", path, size)
	}
	if size > int64(maxMapSize) {
		return nil, fmt.Errorf("colstore: extent file %s too large to map (%d bytes)", path, size)
	}
	data, mapped, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("colstore: map %s: %w", path, err)
	}
	sf, err := DecodeSegmentFile(data)
	if err != nil {
		if mapped {
			_ = munmapFile(data)
		}
		return nil, fmt.Errorf("colstore: %s: %w", path, err)
	}
	mf := &MappedFile{SegmentFile: sf, data: data, mapped: mapped}
	mf.AdviseSequential()
	return mf, nil
}

// Size returns the byte length of the underlying file image.
func (m *MappedFile) Size() int { return len(m.data) }

// Close unmaps the file. All extent views become invalid.
func (m *MappedFile) Close() error {
	if m.data == nil {
		return nil
	}
	data, mapped := m.data, m.mapped
	m.data, m.SegmentFile = nil, nil
	if mapped {
		return munmapFile(data)
	}
	return nil
}

// AdviseSequential hints the kernel that the mapping will be read front to
// back, enabling aggressive readahead.
func (m *MappedFile) AdviseSequential() {
	if m.mapped {
		adviseSequential(m.data)
	}
}
