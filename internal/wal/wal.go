// Package wal implements the write-ahead log of Sec. 5.1/5.3: heavy write
// requests are first materialized as log entries and acknowledged, then a
// background thread consumes them ("users may not immediately see the
// inserted data"), and Flush blocks until all pending operations are
// applied. In the distributed deployment the writer ships these logs —
// rather than data — to shared storage, Aurora-style.
//
// A log entry is one Batch, the write a client made: its rows as columns.
// The same columns are the SDK's insert body (VDBC), the frame the writer
// ships and the rows the MemTable seals into a segment.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sync"
	"unicode/utf8"

	"vectordb/internal/obs"
)

// Kind tags a batch with what applying it does.
type Kind uint8

const (
	// Insert adds the batch's rows.
	Insert Kind = 1
	// Delete tombstones the batch's IDs; it holds no other column.
	Delete Kind = 2
)

// Batch is one write as columns: Rows() rows, each an ID and, in an
// insert, one vector per vector field, one value per attribute field and
// one per categorical field. It is appended, shipped and applied whole.
type Batch struct {
	Kind    Kind
	IDs     []int64
	Vectors [][]float32 // per vector field: rows × dim, row after row
	Attrs   [][]int64   // per attribute field: one value per row
	Cats    [][]string  // per categorical field: one value per row
}

// Rows is the batch's row count.
func (b *Batch) Rows() int { return len(b.IDs) }

// Magic opens a VDBC body, the columnar encoding of a batch's rows that
// the SDK sends as an insert body and a WAL frame carries:
//
//	"VDBC", u32 version 1
//	u32 rows, vector fields, attrs, cats; then u32 dim per vector field
//	ids: rows × i64; vectors: per field, rows × dim 32-bit words
//	attrs: per attr, rows × i64; cats: per cat, per row u32 length + bytes
//
// A body carries vector words as bits — a float field's float32s and a
// binary field's packed words alike, NaN and ±Inf patterns included — and
// categories as UTF-8. The schema, not the body, judges vector values by
// field kind (core.Schema.CheckBatch). A body is canonical: a body
// DecodeBody takes is exactly what AppendBody writes for what it decoded,
// so zero rows have no fields and a vector field has a dimension.
const Magic = "VDBC\x01\x00\x00\x00"

const header = 24 // a body's magic, version and four counts

var le = binary.LittleEndian

// AppendBody appends b's rows to dst as a VDBC body. It fails, leaving dst
// as it was, when the body cannot carry them: fields without rows, a
// vector column that is not rows × a positive dimension, an attribute or
// category column not one value per row, or invalid UTF-8.
func AppendBody(dst []byte, b *Batch) ([]byte, error) {
	n := b.Rows()
	if n == 0 && len(b.Vectors)+len(b.Attrs)+len(b.Cats) > 0 {
		return dst, errors.New("wal: fields without rows")
	}
	for f, v := range b.Vectors {
		if len(v) == 0 || len(v)%n != 0 {
			return dst, fmt.Errorf("wal: vector field %d holds %d words for %d rows", f, len(v), n)
		}
	}
	for a, col := range b.Attrs {
		if len(col) != n {
			return dst, fmt.Errorf("wal: attribute %d holds %d values for %d rows", a, len(col), n)
		}
	}
	for c, col := range b.Cats {
		if len(col) != n {
			return dst, fmt.Errorf("wal: category %d holds %d values for %d rows", c, len(col), n)
		}
	}
	r := Row{Vectors: make([][]float32, len(b.Vectors)), Attrs: make([]int64, len(b.Attrs)), Cats: make([]string, len(b.Cats))}
	return AppendRows(dst, n, func(i int) Row {
		r.ID = b.IDs[i]
		for f, v := range b.Vectors {
			dim := len(v) / n
			r.Vectors[f] = v[i*dim : (i+1)*dim]
		}
		for a, col := range b.Attrs {
			r.Attrs[a] = col[i]
		}
		for c, col := range b.Cats {
			r.Cats[c] = col[i]
		}
		return r
	})
}

// Row is one row of an insert as a client holds it: an ID, one vector per
// vector field, one value per attribute and one per category.
type Row struct {
	ID      int64
	Vectors [][]float32
	Attrs   []int64
	Cats    []string
}

// AppendRows appends n rows, row i read as row(i), to dst as a VDBC body —
// the body AppendBody writes for the batch of the same rows — without
// gathering them into columns first. row may reuse the Row it returns:
// each is read before the next call. It fails, leaving dst as it was, when
// a row's shape is not row 0's, a vector is empty or a category is not
// UTF-8.
func AppendRows(dst []byte, n int, row func(int) Row) ([]byte, error) {
	var dims []int
	var na, nc int
	if n > 0 {
		r := row(0)
		for _, v := range r.Vectors {
			dims = append(dims, len(v))
		}
		na, nc = len(r.Attrs), len(r.Cats)
	}
	size := header + 4*len(dims) + 8*n*(1+na) + 4*n*nc
	for i := range n {
		r := row(i)
		if len(r.Vectors) != len(dims) || len(r.Attrs) != na || len(r.Cats) != nc {
			return dst, fmt.Errorf("wal: row %d has %d vectors, %d attrs and %d cats; row 0 has %d, %d and %d",
				i, len(r.Vectors), len(r.Attrs), len(r.Cats), len(dims), na, nc)
		}
		for f, v := range r.Vectors {
			if len(v) == 0 || len(v) != dims[f] {
				return dst, fmt.Errorf("wal: row %d vector field %d: dim %d, row 0's is %d", i, f, len(v), dims[f])
			}
			size += 4 * len(v)
		}
		for c, s := range r.Cats {
			if !utf8.ValidString(s) {
				return dst, fmt.Errorf("wal: invalid UTF-8 in category %d", c)
			}
			size += len(s)
		}
	}
	// Room for a frame's CRC as well, which AppendFrame writes after the body.
	out := append(slices.Grow(dst, size+4), Magic...)
	for _, c := range [...]int{n, len(dims), na, nc} {
		out = le.AppendUint32(out, uint32(c))
	}
	for _, dim := range dims {
		out = le.AppendUint32(out, uint32(dim))
	}
	for i := range n {
		out = le.AppendUint64(out, uint64(row(i).ID))
	}
	for f := range dims {
		for i := range n {
			out = AppendFloats(out, row(i).Vectors[f])
		}
	}
	for a := range na {
		for i := range n {
			out = le.AppendUint64(out, uint64(row(i).Attrs[a]))
		}
	}
	for c := range nc {
		for i := range n {
			out = AppendString(out, row(i).Cats[c])
		}
	}
	return out, nil
}

// AppendFloats appends v's 32-bit words, little-endian, as bits: a NaN or
// ±Inf pattern is carried like any other word.
func AppendFloats(dst []byte, v []float32) []byte {
	for _, x := range v {
		dst = le.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// AppendString appends s as a u32 length and its bytes.
func AppendString(dst []byte, s string) []byte {
	return append(le.AppendUint32(dst, uint32(len(s))), s...)
}

// DecodeBody decodes a VDBC body into a fresh insert batch. A body that is
// short, long or carries invalid UTF-8 is an error, and nothing sized by a
// count is made before the count is checked against the body's length.
func DecodeBody(b []byte) (*Batch, error) {
	r := NewReader(b, Magic)
	rows, nv, na, nc := uint64(r.U32()), uint64(r.U32()), r.U32(), r.U32()
	dims := r.span(nv, 4)
	if rows == 0 && nv+uint64(na)+uint64(nc) != 0 {
		r.Fail(errors.New("fields without rows"))
	}
	out := &Batch{Kind: Insert, IDs: ints(r.span(rows, 8))}
	for f := 0; f < len(dims)/4 && r.err == nil; f++ {
		dim := uint64(le.Uint32(dims[4*f:]))
		if dim == 0 {
			r.Fail(fmt.Errorf("vector field %d has no dimension", f))
		}
		out.Vectors = append(out.Vectors, floats(r.span(rows, 4*dim)))
	}
	for a := uint32(0); a < na && r.err == nil; a++ {
		out.Attrs = append(out.Attrs, ints(r.span(rows, 8)))
	}
	for c := uint32(0); c < nc && r.fits(rows, 4); c++ { // a value is at least its length
		col := make([]string, rows)
		for i := range col {
			col[i] = r.Str()
		}
		out.Cats = append(out.Cats, col)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wal: body: %w", err)
	}
	return out, nil
}

// Reader reads a columnar body's values in order: a VDBC body, and package
// rest's search (VDBQ) and hits (VDBH) bodies. The first read that
// overruns the body, or that its caller Fails, sets the reader's error;
// every read after it takes nothing and returns a zero value. A count is
// checked against the bytes left before anything sized by it is made.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads the values of b that follow magic, the body's first
// bytes.
func NewReader(b []byte, magic string) Reader {
	if len(b) < len(magic) || string(b[:len(magic)]) != magic {
		return Reader{err: errors.New("bad magic or version")}
	}
	return Reader{b: b[len(magic):]}
}

// Fail sets the reader's error to err unless it is already set.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

// End is the reader's error, or one if bytes follow the last value read.
func (r *Reader) End() error {
	if len(r.b) > 0 {
		r.Fail(fmt.Errorf("%d bytes after the last value", len(r.b)))
	}
	return r.err
}

// fits reports whether n values of size bytes each are left, failing the
// reader if they are not.
func (r *Reader) fits(n, size uint64) bool {
	if r.err == nil && n > uint64(len(r.b))/size {
		r.Fail(fmt.Errorf("%d values of %d bytes overrun the body", n, size))
	}
	return r.err == nil
}

// span takes the bytes of n values of size bytes each.
func (r *Reader) span(n, size uint64) []byte {
	if !r.fits(n, size) {
		return nil
	}
	return r.Take(int(n * size))
}

// Take takes the next n bytes, failing the reader if fewer are left.
func (r *Reader) Take(n int) []byte {
	if uint(n) > uint(len(r.b)) {
		r.Fail(errors.New("truncated"))
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// U32 reads a u32.
func (r *Reader) U32() uint32 {
	if v := r.Take(4); v != nil {
		return le.Uint32(v)
	}
	return 0
}

// I64 reads an i64.
func (r *Reader) I64() int64 {
	if v := r.Take(8); v != nil {
		return int64(le.Uint64(v))
	}
	return 0
}

// Int reads an i64 that an int holds.
func (r *Reader) Int() int {
	n := r.I64()
	if int64(int(n)) != n {
		r.Fail(fmt.Errorf("%d overflows an int", n))
	}
	return int(n)
}

// Count reads a u32 count of values of at least size bytes each.
func (r *Reader) Count(size int) int {
	if n := uint64(r.U32()); r.fits(n, uint64(size)) {
		return int(n)
	}
	return 0
}

// Str reads a u32 length and that many bytes of UTF-8.
func (r *Reader) Str() string {
	v := r.Take(int(r.U32()))
	if !utf8.Valid(v) {
		r.Fail(errors.New("invalid UTF-8"))
	}
	return string(v)
}

// Floats reads n 32-bit words as float32s, bit for bit.
func (r *Reader) Floats(n int) []float32 { return floats(r.span(uint64(n), 4)) }

// floats is src's little-endian words as float32s.
func floats(src []byte) []float32 {
	v := make([]float32, len(src)/4)
	for i := range v {
		v[i] = math.Float32frombits(le.Uint32(src[4*i:]))
	}
	return v
}

// ints is src's little-endian words as int64s.
func ints(src []byte) []int64 {
	v := make([]int64, len(src)/8)
	for i := range v {
		v[i] = int64(le.Uint64(src[8*i:]))
	}
	return v
}

// frameOverhead is a frame's bytes besides its body: the length, the kind
// and the CRC.
const frameOverhead = 4 + 1 + 4

// AppendFrame appends b to dst as one frame of a WAL object: u32 body
// length, u8 kind, b's VDBC body, and a CRC32 (IEEE) of the kind and the
// body. It fails, leaving dst as it was, when the body cannot carry b or b
// is not an insert or a delete of IDs alone.
func AppendFrame(dst []byte, b *Batch) ([]byte, error) {
	if err := b.kindErr(); err != nil {
		return dst, err
	}
	start := len(dst)
	out, err := AppendBody(append(dst, 0, 0, 0, 0, byte(b.Kind)), b)
	if err != nil {
		return dst, err
	}
	le.PutUint32(out[start:], uint32(len(out)-start-5)) // the body's length
	return le.AppendUint32(out, crc32.ChecksumIEEE(out[start+4:])), nil
}

// kindErr is why b's kind does not fit its columns, or nil.
func (b *Batch) kindErr() error {
	if b.Kind == Insert || b.Kind == Delete && len(b.Vectors)+len(b.Attrs)+len(b.Cats) == 0 {
		return nil
	}
	return fmt.Errorf("wal: kind %d batch with %d vector, %d attribute and %d category columns", b.Kind, len(b.Vectors), len(b.Attrs), len(b.Cats))
}

// ErrTorn marks a WAL object whose tail is torn or corrupted — a write
// that died partway (truncated frame) or bit rot (CRC mismatch). Replay
// wraps it so callers can tell "recovered a prefix" from other failures.
var ErrTorn = errors.New("wal: torn object tail")

// Replay decodes a WAL object's frames in order and returns the batches of
// the longest prefix of whole, intact frames. When bytes follow that
// prefix the error wraps ErrTorn: a batch is atomic, so no row of a torn
// frame comes back. A clean object returns a nil error. Replay never
// panics on hostile input, and allocates in proportion to the object's
// length.
func Replay(obj []byte) ([]*Batch, error) {
	var out []*Batch
	for off := 0; off < len(obj); {
		rest := obj[off:]
		if len(rest) < frameOverhead {
			return out, fmt.Errorf("%w: %d bytes at offset %d are no frame", ErrTorn, len(rest), off)
		}
		n := uint64(le.Uint32(rest))
		if n > uint64(len(rest)-frameOverhead) {
			return out, fmt.Errorf("%w: frame at offset %d claims %d bytes, %d remain", ErrTorn, off, n, len(rest)-frameOverhead)
		}
		frame := rest[4 : 5+n]
		if crc32.ChecksumIEEE(frame) != le.Uint32(rest[5+n:]) {
			return out, fmt.Errorf("%w: frame at offset %d: CRC mismatch", ErrTorn, off)
		}
		b, err := DecodeBody(frame[1:])
		if err == nil {
			b.Kind = Kind(frame[0])
			err = b.kindErr()
		}
		if err != nil {
			return out, fmt.Errorf("%w: frame at offset %d: %v", ErrTorn, off, err)
		}
		out = append(out, b)
		off += frameOverhead + int(n)
	}
	return out, nil
}

// Log is the in-memory apply queue in front of a collection: Append queues
// a batch and returns immediately; a background goroutine applies batches
// in order; Flush blocks until everything appended so far has been
// applied. The log keeps no batch once it is applied — the queue slot is
// cleared as it is popped — so durability is the caller's: the distributed
// writer ships each batch as a frame before it appends, and Replay is the
// recovery path (Sec. 5.3).
type Log struct {
	apply func(*Batch)

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Batch
	applied int64
	enq     int64
	closed  bool

	appendC  *obs.Counter // rows appended
	appliedC *obs.Counter // rows applied
}

// NewLog starts a log whose batches are consumed by apply, counting the
// rows appended and applied on the two counters (either may be nil).
func NewLog(apply func(*Batch), appends, applied *obs.Counter) *Log {
	l := &Log{apply: apply, appendC: appends, appliedC: applied}
	l.cond = sync.NewCond(&l.mu)
	//lint:allow goleak run exits when Close sets closed and broadcasts the cond; a cond-based drain loop has no channel for the analyzer to see
	go l.run()
	return l
}

// Append queues b for asynchronous application; the log owns b from then
// on.
func (l *Log) Append(b *Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	l.queue = append(l.queue, b)
	l.enq++
	l.appendC.Add(int64(b.Rows()))
	l.cond.Broadcast()
	return nil
}

func (l *Log) run() {
	l.mu.Lock()
	for {
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		b := l.queue[0]
		// Clear the slot: the backing array outlives the pop until the
		// next append reallocates, and must not keep b alive.
		l.queue[0] = nil
		l.queue = l.queue[1:]
		l.mu.Unlock()
		l.apply(b)
		l.mu.Lock()
		l.applied++
		l.appliedC.Add(int64(b.Rows()))
		l.cond.Broadcast()
	}
}

// Flush blocks until every batch appended before the call is applied —
// the flush() API of Sec. 5.1.
func (l *Log) Flush() {
	l.mu.Lock()
	target := l.enq
	for l.applied < target {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// Close stops the background applier after draining the queue.
func (l *Log) Close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	for len(l.queue) > 0 {
		l.cond.Wait()
	}
	l.mu.Unlock()
}
