package ivf

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"vectordb/internal/index"
	"vectordb/internal/kmeans"
	"vectordb/internal/quantizer"
	"vectordb/internal/vec"
)

// Persistence for the IVF family: the built index (coarse centroids, fine
// quantizer state, bucket contents) serializes into one blob stored next to
// its segment (Sec. 2.3), so a reader loads the index rather than
// re-training it.

func init() {
	for _, f := range []Fine{FineFlat, FineSQ8, FinePQ} {
		fine := f
		index.RegisterUnmarshaler(fine.name(), func(metric vec.Metric, dim int, data []byte) (index.Index, error) {
			return unmarshalIVF(fine, metric, dim, data)
		})
	}
}

// ivfMagic identifies format v2, which appends each bucket's build-order
// row positions after its payload (the carrier of bitset pushdown). v1
// blobs lack positions and cannot support filtered search, so they are
// rejected rather than half-loaded.
const (
	ivfMagic   = uint32(0x49564632) // "IVF2"
	ivfMagicV1 = uint32(0x49564631) // "IVF1"
)

// hostLE reports whether this host lays numbers out little-endian, as the
// blob does: arrays then move between memory and the blob in one copy.
// Big-endian hosts take the per-element path.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// asBytes views an array's elements as their in-memory bytes.
func asBytes[T float32 | int32 | int64](xs []T) []byte {
	if len(xs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&xs[0])), len(xs)*int(unsafe.Sizeof(xs[0])))
}

type blobWriter struct{ buf []byte }

func (w *blobWriter) u32(v uint32)        { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *blobWriter) u64(v uint64)        { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *blobWriter) f32(v float32)       { w.u32(math.Float32bits(v)) }
func (w *blobWriter) floats(xs []float32) { writeArray(w, xs, w.f32) }
func (w *blobWriter) bytes(bs []byte) {
	w.u32(uint32(len(bs)))
	w.buf = append(w.buf, bs...)
}
func (w *blobWriter) ids(xs []int64)    { writeArray(w, xs, func(x int64) { w.u64(uint64(x)) }) }
func (w *blobWriter) pos32s(xs []int32) { writeArray(w, xs, func(x int32) { w.u32(uint32(x)) }) }

// writeArray appends one length-prefixed array: one copy on a
// little-endian host, else one put per element.
func writeArray[T float32 | int32 | int64](w *blobWriter, xs []T, put func(T)) {
	w.u32(uint32(len(xs)))
	if hostLE {
		w.buf = append(w.buf, asBytes(xs)...)
		return
	}
	for _, x := range xs {
		put(x)
	}
}

type blobReader struct {
	buf []byte
	off int
	err error
}

func (r *blobReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("ivf: truncated index blob at offset %d", r.off)
	}
}

func (r *blobReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *blobReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *blobReader) f32() float32 { return math.Float32frombits(r.u32()) }

// count reads an array's u32 length and checks that many width-byte
// elements remain; on failure it records the error and returns 0.
func (r *blobReader) count(width int) int {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+width*n > len(r.buf) {
		r.fail()
		return 0
	}
	return n
}

func (r *blobReader) floats() []float32 { return r.appendFloats(nil) }

// appendArray appends one length-prefixed array of width-byte elements
// to dst: one copy on a little-endian host, else one get per element.
func appendArray[T float32 | int32 | int64](r *blobReader, dst []T, width int, get func() T) []T {
	n := r.count(width)
	if !hostLE {
		for ; n > 0; n-- {
			dst = append(dst, get())
		}
		return dst
	}
	m := len(dst)
	dst = slices.Grow(dst, n)[:m+n]
	r.off += copy(asBytes(dst[m:]), r.buf[r.off:r.off+width*n])
	return dst
}

// appendFloats appends one length-prefixed float array to dst.
func (r *blobReader) appendFloats(dst []float32) []float32 {
	return appendArray(r, dst, 4, r.f32)
}

// appendBytes appends one length-prefixed byte array to dst.
func (r *blobReader) appendBytes(dst []byte) []byte {
	n := r.count(1)
	dst = append(dst, r.buf[r.off:r.off+n]...)
	r.off += n
	return dst
}

// appendPos appends one length-prefixed int32 array to dst.
func (r *blobReader) appendPos(dst []int32) []int32 {
	return appendArray(r, dst, 4, func() int32 { return int32(r.u32()) })
}

// appendIDs appends one length-prefixed int64 array to dst.
func (r *blobReader) appendIDs(dst []int64) []int64 {
	return appendArray(r, dst, 8, func() int64 { return int64(r.u64()) })
}

// MarshalIndex implements index.Marshaler. Externalized indexes refuse:
// their payload lives in an extent file, and persistence must happen while
// the built index is still resident (which is the order the core seal path
// follows).
func (x *IVF) MarshalIndex() ([]byte, error) {
	if x.Externalized() {
		return nil, fmt.Errorf("ivf: externalized index does not marshal; persist before externalizing")
	}
	floats, codes, _ := x.ResidentPayload()
	size := 6*4 + 4*len(x.coarse.Centroids) + 12*x.nlist + 12*len(x.ids) + 4*len(floats) + len(codes)
	switch x.fine {
	case FineSQ8:
		size += 8 + 4*(len(x.sq8.Min)+len(x.sq8.Step))
	case FinePQ:
		size += 8 + 4*len(x.pq.Codebooks)
		for _, cb := range x.pq.Codebooks {
			size += 4 * len(cb)
		}
	}
	w := &blobWriter{buf: make([]byte, 0, size)}
	w.u32(ivfMagic)
	w.u32(uint32(x.fine))
	w.u32(uint32(x.nlist))
	w.u32(uint32(x.nprobeDef))
	w.u32(uint32(x.size))
	w.floats(x.coarse.Centroids)
	switch x.fine {
	case FineSQ8:
		w.floats(x.sq8.Min)
		w.floats(x.sq8.Step)
	case FinePQ:
		w.u32(uint32(x.pq.M))
		w.u32(uint32(x.pq.Ks))
		for _, cb := range x.pq.Codebooks {
			w.floats(cb)
		}
	}
	cs := x.rowWidth()
	for b := 0; b < x.nlist; b++ {
		w.ids(bucket(x.ids, x.starts, b, 1))
		switch x.fine {
		case FineFlat:
			w.floats(bucket(floats, x.starts, b, cs))
		default:
			w.bytes(bucket(codes, x.starts, b, cs))
		}
		w.pos32s(bucket(x.pos, x.starts, b, 1))
	}
	return w.buf, nil
}

func unmarshalIVF(fine Fine, metric vec.Metric, dim int, data []byte) (index.Index, error) {
	r := &blobReader{buf: data}
	switch magic := r.u32(); magic {
	case ivfMagic:
	case ivfMagicV1:
		return nil, fmt.Errorf("ivf: v1 index blob lacks bucket positions; rebuild the index")
	default:
		return nil, fmt.Errorf("ivf: bad index blob magic")
	}
	if Fine(r.u32()) != fine {
		return nil, fmt.Errorf("ivf: blob fine-quantizer mismatch")
	}
	x := &IVF{fine: fine, metric: metric, dim: dim}
	x.nlist = int(r.u32())
	x.nprobeDef = int(r.u32())
	x.size = int(r.u32())
	if r.err == nil && (x.nlist < 1 || x.size < 0 || x.nprobeDef < 1) {
		return nil, fmt.Errorf("ivf: bad header (nlist=%d nprobe=%d size=%d)", x.nlist, x.nprobeDef, x.size)
	}
	cents := r.floats()
	if r.err != nil {
		return nil, r.err
	}
	if len(cents) != x.nlist*dim {
		return nil, fmt.Errorf("ivf: centroid matrix has %d floats, want %d", len(cents), x.nlist*dim)
	}
	x.coarse = &kmeans.Result{K: x.nlist, Dim: dim, Centroids: cents}
	switch fine {
	case FineSQ8:
		x.sq8 = &quantizer.SQ8{Dim: dim, Min: r.floats(), Step: r.floats()}
		if r.err == nil && (len(x.sq8.Min) != dim || len(x.sq8.Step) != dim) {
			return nil, fmt.Errorf("ivf: sq8 state has wrong dimensionality")
		}
	case FinePQ:
		m := int(r.u32())
		ks := int(r.u32())
		if r.err != nil || m <= 0 || dim%m != 0 || ks <= 0 || ks > 256 {
			return nil, fmt.Errorf("ivf: bad pq header (m=%d ks=%d)", m, ks)
		}
		pq := &quantizer.PQ{Dim: dim, M: m, SubDim: dim / m, Ks: ks}
		for i := 0; i < m; i++ {
			cb := r.floats()
			if r.err == nil && len(cb) != pq.SubDim*ks {
				return nil, fmt.Errorf("ivf: pq codebook %d has %d floats, want %d", i, len(cb), pq.SubDim*ks)
			}
			pq.Codebooks = append(pq.Codebooks, cb)
		}
		x.pq = pq
	}
	cs := x.rowWidth()
	var res resident
	// Size the arrays once from the header, capped by what the rest of the
	// blob can hold (12 bytes of id and position a row), so a corrupt
	// header cannot make the decoder allocate past its input.
	rows := min(x.size, (len(data)-r.off)/12)
	x.ids, x.pos = make([]int64, 0, rows), make([]int32, 0, rows)
	if fine == FineFlat {
		res.floats = make([]float32, 0, min(rows*cs, (len(data)-r.off)/4))
	} else {
		res.codes = make([]byte, 0, min(rows*cs, len(data)-r.off))
	}
	x.starts = make([]int32, x.nlist+1)
	for b := 0; b < x.nlist && r.err == nil; b++ {
		x.ids = r.appendIDs(x.ids)
		n := len(x.ids) - int(x.starts[b])
		// Bucket payloads must stay aligned with the bucket's ID list —
		// a shorter vector/code array would read out of bounds at scan time.
		switch fine {
		case FineFlat:
			res.floats = r.appendFloats(res.floats)
			if got := len(res.floats) - int(x.starts[b])*cs; r.err == nil && got != n*cs {
				return nil, fmt.Errorf("ivf: bucket %d has %d floats for %d ids", b, got, n)
			}
		default:
			res.codes = r.appendBytes(res.codes)
			if got := len(res.codes) - int(x.starts[b])*cs; r.err == nil && got != n*cs {
				return nil, fmt.Errorf("ivf: bucket %d has %d code bytes for %d ids (code size %d)", b, got, n, cs)
			}
		}
		x.pos = r.appendPos(x.pos)
		if got := len(x.pos) - int(x.starts[b]); r.err == nil && got != n {
			return nil, fmt.Errorf("ivf: bucket %d has %d positions for %d ids", b, got, n)
		}
		x.starts[b+1] = int32(len(x.ids))
	}
	x.payload = res
	if r.err != nil {
		return nil, r.err
	}
	if len(x.ids) != x.size {
		return nil, fmt.Errorf("ivf: buckets hold %d vectors, header claims %d", len(x.ids), x.size)
	}
	// Positions are a permutation of [0, size): each filtered scan indexes
	// the query bitset with them, so a corrupt position would silently drop
	// or admit the wrong rows.
	seen := make([]bool, x.size)
	for i, pp := range x.pos {
		if pp < 0 || int(pp) >= x.size || seen[pp] {
			return nil, fmt.Errorf("ivf: entry %d position %d out of range or duplicated", i, pp)
		}
		seen[pp] = true
	}
	if fine == FinePQ && x.pq.Ks < 256 {
		// Every PQ code byte indexes a Ks-entry distance table at scan
		// time; a corrupted byte ≥ Ks would read out of bounds.
		for i, code := range res.codes {
			if int(code) >= x.pq.Ks {
				return nil, fmt.Errorf("ivf: code byte %d is %d, ks=%d", i, code, x.pq.Ks)
			}
		}
	}
	return x, nil
}
