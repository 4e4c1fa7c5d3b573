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
//	ids: rows × i64; vectors: per field, rows × dim f32
//	attrs: per attr, rows × i64; cats: per cat, per row u32 length + bytes
//
// A body carries what JSON can, finite floats and UTF-8, and is canonical:
// a body DecodeBody takes is exactly what AppendBody writes for what it
// decoded, so zero rows have no fields and a vector field has a dimension.
const Magic = "VDBC\x01\x00\x00\x00"

const (
	header    = 24         // a body's magic, version and four counts
	nonFinite = 0x7f800000 // a float32's exponent bits: set in NaN and ±Inf
)

var le = binary.LittleEndian

// AppendBody appends b's rows to dst as a VDBC body. It fails, leaving dst
// as it was, when the body cannot carry them: fields without rows, a
// vector column that is not rows × a positive dimension, an attribute or
// category column not one value per row, a NaN, ±Inf or invalid UTF-8.
func AppendBody(dst []byte, b *Batch) ([]byte, error) {
	size, err := bodySize(b)
	if err != nil {
		return dst, err
	}
	n := b.Rows()
	out := appendHeader(slices.Grow(dst, size), n, len(b.Vectors), len(b.Attrs), len(b.Cats))
	for _, v := range b.Vectors {
		out = le.AppendUint32(out, uint32(len(v)/n))
	}
	for _, id := range b.IDs {
		out = le.AppendUint64(out, uint64(id))
	}
	for f, v := range b.Vectors {
		if out, err = appendFloats(out, f, v); err != nil {
			return dst, err
		}
	}
	for _, col := range b.Attrs {
		for _, x := range col {
			out = le.AppendUint64(out, uint64(x))
		}
	}
	for _, col := range b.Cats {
		for _, s := range col {
			out = appendString(out, s)
		}
	}
	return out, nil
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
// gathering them into columns first. It fails, leaving dst as it was,
// where AppendBody would and when a row's shape is not row 0's.
func AppendRows(dst []byte, n int, row func(int) Row) ([]byte, error) {
	if n == 0 {
		return AppendBody(dst, &Batch{})
	}
	first := row(0)
	size := header + 4*len(first.Vectors) + 8*n*(1+len(first.Attrs)) + 4*n*len(first.Cats)
	for i := range n {
		r := row(i)
		if len(r.Vectors) != len(first.Vectors) || len(r.Attrs) != len(first.Attrs) || len(r.Cats) != len(first.Cats) {
			return dst, fmt.Errorf("wal: row %d has %d vectors, %d attrs and %d cats; row 0 has %d, %d and %d",
				i, len(r.Vectors), len(r.Attrs), len(r.Cats), len(first.Vectors), len(first.Attrs), len(first.Cats))
		}
		for f, v := range r.Vectors {
			if len(v) == 0 || len(v) != len(first.Vectors[f]) {
				return dst, fmt.Errorf("wal: row %d vector field %d: dim %d, row 0's is %d", i, f, len(v), len(first.Vectors[f]))
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
	out := appendHeader(slices.Grow(dst, size), n, len(first.Vectors), len(first.Attrs), len(first.Cats))
	for _, v := range first.Vectors {
		out = le.AppendUint32(out, uint32(len(v)))
	}
	for i := range n {
		out = le.AppendUint64(out, uint64(row(i).ID))
	}
	var err error
	for f := range first.Vectors {
		for i := range n {
			if out, err = appendFloats(out, f, row(i).Vectors[f]); err != nil {
				return dst, err
			}
		}
	}
	for a := range first.Attrs {
		for i := range n {
			out = le.AppendUint64(out, uint64(row(i).Attrs[a]))
		}
	}
	for c := range first.Cats {
		for i := range n {
			out = appendString(out, row(i).Cats[c])
		}
	}
	return out, nil
}

// appendHeader appends a body's magic and its four counts.
func appendHeader(dst []byte, rows, vectors, attrs, cats int) []byte {
	dst = append(dst, Magic...)
	for _, c := range [...]int{rows, vectors, attrs, cats} {
		dst = le.AppendUint32(dst, uint32(c))
	}
	return dst
}

// appendFloats appends vector field f's floats, failing on a NaN or ±Inf.
func appendFloats(dst []byte, f int, v []float32) ([]byte, error) {
	for _, x := range v {
		u := math.Float32bits(x)
		if u&nonFinite == nonFinite {
			return dst, fmt.Errorf("wal: NaN or ±Inf in vector field %d", f)
		}
		dst = le.AppendUint32(dst, u)
	}
	return dst, nil
}

// appendString appends a category value: a u32 length and its bytes.
func appendString(dst []byte, s string) []byte {
	return append(le.AppendUint32(dst, uint32(len(s))), s...)
}

// bodySize is the length of b's VDBC body, or why the body cannot carry b
// (all but a NaN or ±Inf, which AppendBody finds as it writes).
func bodySize(b *Batch) (int, error) {
	n := b.Rows()
	if n == 0 && len(b.Vectors)+len(b.Attrs)+len(b.Cats) > 0 {
		return 0, errors.New("wal: fields without rows")
	}
	size := header + 4*len(b.Vectors) + 8*n*(1+len(b.Attrs)) + 4*n*len(b.Cats)
	for f, v := range b.Vectors {
		if len(v) == 0 || len(v)%n != 0 {
			return 0, fmt.Errorf("wal: vector field %d holds %d floats for %d rows", f, len(v), n)
		}
		size += 4 * len(v)
	}
	for a, col := range b.Attrs {
		if len(col) != n {
			return 0, fmt.Errorf("wal: attribute %d holds %d values for %d rows", a, len(col), n)
		}
	}
	for c, col := range b.Cats {
		if len(col) != n {
			return 0, fmt.Errorf("wal: category %d holds %d values for %d rows", c, len(col), n)
		}
		for _, s := range col {
			if !utf8.ValidString(s) {
				return 0, fmt.Errorf("wal: invalid UTF-8 in category %d", c)
			}
			size += len(s)
		}
	}
	return size, nil
}

// DecodeBody decodes a VDBC body into a fresh insert batch. The header's
// counts are checked against the body's length before anything sized by
// them is allocated; a body that is short, long or carries a NaN, ±Inf or
// invalid UTF-8 is an error.
func DecodeBody(b []byte) (*Batch, error) {
	if len(b) < header || string(b[:8]) != Magic {
		return nil, fmt.Errorf("wal: body: bad magic or version")
	}
	rows, nv, na, nc := uint64(le.Uint32(b[8:])), uint64(le.Uint32(b[12:])), uint64(le.Uint32(b[16:])), uint64(le.Uint32(b[20:]))
	if rows == 0 && nv+na+nc != 0 {
		return nil, fmt.Errorf("wal: body: fields without rows")
	}
	if 4*nv > uint64(len(b)-header) {
		return nil, fmt.Errorf("wal: body: %d vector dims overrun %d bytes", nv, len(b))
	}
	// need is the body's least length: the header, every fixed-width column
	// and each category's length word. It never passes len(b), so it never
	// overflows: each column's rows × width is bounded by division first.
	need, widths := header+4*nv, []uint64{8, 8 * na, 4 * nc}
	for f := range nv {
		dim := uint64(le.Uint32(b[header+4*f:]))
		if dim == 0 {
			return nil, fmt.Errorf("wal: body: vector field %d has no dimension", f)
		}
		widths = append(widths, 4*dim)
	}
	for _, w := range widths {
		if rows > 0 && w > (uint64(len(b))-need)/rows {
			return nil, fmt.Errorf("wal: body: %d rows of %d vector fields, %d attrs and %d cats overrun %d bytes", rows, nv, na, nc, len(b))
		}
		need += rows * w
	}

	n, p := int(rows), int(header+4*nv)
	next := func(size int) []byte { p += size; return b[p-size : p] }
	out := &Batch{Kind: Insert, IDs: make([]int64, n)}
	for i := range out.IDs {
		out.IDs[i] = int64(le.Uint64(next(8)))
	}
	for f, w := range widths[3:] {
		col, src := make([]float32, n*int(w/4)), next(n*int(w))
		for j := range col {
			u := le.Uint32(src[4*j:])
			if u&nonFinite == nonFinite {
				return nil, fmt.Errorf("wal: body: NaN or ±Inf in vector field %d", f)
			}
			col[j] = math.Float32frombits(u)
		}
		out.Vectors = append(out.Vectors, col)
	}
	for range na {
		col := make([]int64, n)
		for i := range col {
			col[i] = int64(le.Uint64(next(8)))
		}
		out.Attrs = append(out.Attrs, col)
	}
	for c := range nc {
		col := make([]string, n)
		for i := range col {
			if len(b)-p < 4 || uint64(le.Uint32(b[p:])) > uint64(len(b)-p-4) {
				return nil, fmt.Errorf("wal: body: cat %d overruns the body", c)
			}
			s := next(int(le.Uint32(next(4))))
			if !utf8.Valid(s) {
				return nil, fmt.Errorf("wal: body: invalid UTF-8 in cat %d", c)
			}
			col[i] = string(s)
		}
		out.Cats = append(out.Cats, col)
	}
	if p != len(b) {
		return nil, fmt.Errorf("wal: body: %d bytes after the last column", len(b)-p)
	}
	return out, nil
}

// frameOverhead is a frame's bytes besides its body: the length, the kind
// and the CRC.
const frameOverhead = 4 + 1 + 4

// AppendFrame appends b to dst as one frame of a WAL object: u32 body
// length, u8 kind, b's VDBC body, and a CRC32 (IEEE) of the kind and the
// body. It fails, leaving dst as it was, when the body cannot carry b or b
// is not an insert or a delete of IDs alone.
func AppendFrame(dst []byte, b *Batch) ([]byte, error) {
	size, err := bodySize(b)
	if err == nil {
		err = b.kindErr()
	}
	if err != nil {
		return dst, err
	}
	start := len(dst)
	out, err := AppendBody(append(slices.Grow(dst, frameOverhead+size), 0, 0, 0, 0, byte(b.Kind)), b)
	if err != nil {
		return dst, err
	}
	le.PutUint32(out[start:], uint32(size))
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
