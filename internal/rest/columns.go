package rest

import (
	"encoding/binary"
	"fmt"
	"math"
	"unicode/utf8"

	"vectordb/internal/core"
)

// ColumnsType is the Content-Type of the columnar insert body: the SDK's
// bulk insert as little-endian columns, so no float is printed as text.
//
//	"VDBC", u32 version 1
//	u32 rows, vector fields, attrs, cats; then u32 dim per vector field
//	ids: rows × i64; vectors: per field, rows × dim f32
//	attrs: per attr, rows × i64; cats: per cat, per row u32 length + bytes
//
// It carries what JSON can, finite floats and UTF-8, and is canonical: a
// body the decoder takes is exactly what the encoder writes for its rows,
// so zero rows have no fields and a vector field has a dimension.
const ColumnsType = "application/x-vectordb-columns"

const (
	columnsMagic  = "VDBC\x01\x00\x00\x00" // and version 1
	columnsHeader = 24                     // magic, version and the four counts
	nonFinite     = 0x7f800000             // a float32's exponent bits: set in NaN and ±Inf
)

var le = binary.LittleEndian

// Encode encodes the request body v and names its Content-Type: an
// InsertRequest as columns when its rows agree in shape and every vector
// is non-empty and finite, anything else as JSON by Marshal — so the
// server names a ragged batch's entity at fault, and a NaN fails here.
func Encode(v any) (body []byte, contentType string, err error) {
	if r, ok := v.(InsertRequest); ok {
		if body, ok := encodeColumns(r.Entities); ok {
			return body, ColumnsType, nil
		}
	}
	body, err = Marshal(v)
	return body, "application/json", err
}

// encodeColumns writes es as a columnar body, or reports false when the
// body cannot carry them.
func encodeColumns(es []EntityJSON) ([]byte, bool) {
	var shape EntityJSON
	if len(es) > 0 {
		shape = es[0]
	}
	nv, na, nc := len(shape.Vectors), len(shape.Attrs), len(shape.Cats)
	counts, size := []int{len(es), nv, na, nc}, columnsHeader+4*nv+len(es)*(8+8*na+4*nc)
	for _, v := range shape.Vectors {
		counts = append(counts, len(v))
		size += 4 * len(es) * len(v)
	}
	b := append(make([]byte, 0, size), columnsMagic...)
	for _, n := range counts {
		b = le.AppendUint32(b, uint32(n))
	}
	for _, e := range es {
		if len(e.Vectors) != nv || len(e.Attrs) != na || len(e.Cats) != nc {
			return nil, false
		}
		b = le.AppendUint64(b, uint64(e.ID))
	}
	for f, v := range shape.Vectors {
		for _, e := range es {
			if len(v) == 0 || len(e.Vectors[f]) != len(v) {
				return nil, false
			}
			for _, x := range e.Vectors[f] {
				if math.Float32bits(x)&nonFinite == nonFinite {
					return nil, false
				}
				b = le.AppendUint32(b, math.Float32bits(x))
			}
		}
	}
	for a := range na {
		for _, e := range es {
			b = le.AppendUint64(b, uint64(e.Attrs[a]))
		}
	}
	for c := range nc {
		for _, e := range es {
			s := e.Cats[c]
			if !utf8.ValidString(s) {
				s = string([]rune(s)) // as encoding/json: each invalid byte is U+FFFD
			}
			b = append(le.AppendUint32(b, uint32(len(s))), s...)
		}
	}
	return b, true
}

// decodeInsert decodes an insert body: columns or an InsertRequest.
func decodeInsert(body []byte, contentType string) ([]core.Entity, error) {
	if contentType == ColumnsType {
		return decodeColumns(body)
	}
	var req InsertRequest
	err := Unmarshal(body, &req)
	rows := make([]core.Entity, len(req.Entities))
	for i, e := range req.Entities {
		rows[i] = core.Entity(e)
	}
	return rows, err
}

// decodeColumns decodes a columnar insert body into its rows. Every row's
// vector of one field aliases a single slice decoded for that field. The
// header's counts are checked against the body's length before anything
// sized by them is allocated; a body that is short, long or carries a NaN,
// ±Inf or invalid UTF-8 is an error.
func decodeColumns(b []byte) ([]core.Entity, error) {
	if len(b) < columnsHeader || string(b[:8]) != columnsMagic {
		return nil, fmt.Errorf("rest: columnar insert body: bad magic or version")
	}
	rows, nv, na, nc := uint64(le.Uint32(b[8:])), uint64(le.Uint32(b[12:])), uint64(le.Uint32(b[16:])), uint64(le.Uint32(b[20:]))
	if rows == 0 && nv+na+nc != 0 {
		return nil, fmt.Errorf("rest: columnar insert body: fields without rows")
	}
	if 4*nv > uint64(len(b)-columnsHeader) {
		return nil, fmt.Errorf("rest: columnar insert body: %d vector dims overrun %d bytes", nv, len(b))
	}
	// need is the body's least length: the header, every fixed-width column
	// and each category's length word. It never passes len(b), so it never
	// overflows: each column's rows × width is bounded by division first.
	need, widths := columnsHeader+4*nv, []uint64{8, 8 * na, 4 * nc}
	for f := range nv {
		dim := uint64(le.Uint32(b[columnsHeader+4*f:]))
		if dim == 0 {
			return nil, fmt.Errorf("rest: columnar insert body: vector field %d has no dimension", f)
		}
		widths = append(widths, 4*dim)
	}
	for _, w := range widths {
		if rows > 0 && w > (uint64(len(b))-need)/rows {
			return nil, fmt.Errorf("rest: columnar insert body: %d rows of %d vector fields, %d attrs and %d cats overrun %d bytes", rows, nv, na, nc, len(b))
		}
		need += rows * w
	}

	n, p := int(rows), int(columnsHeader+4*nv)
	next := func(size int) []byte { p += size; return b[p-size : p] }
	out := make([]core.Entity, n)
	for i := range out {
		out[i].ID = int64(le.Uint64(next(8)))
	}
	vecs := make([][]float32, n*int(nv))
	for f, w := range widths[3:] {
		dim := int(w / 4)
		col, src := make([]float32, n*dim), next(4*n*dim)
		for j := range col {
			u := le.Uint32(src[4*j:])
			if u&nonFinite == nonFinite {
				return nil, fmt.Errorf("rest: columnar insert body: NaN or ±Inf in vector field %d", f)
			}
			col[j] = math.Float32frombits(u)
		}
		for i := range n {
			vecs[i*int(nv)+f] = cut(col, i, dim)
		}
	}
	// The body holds attrs and cats column by column: value j is column
	// j/n of row j%n.
	attrs := make([]int64, n*int(na))
	for j := range attrs {
		attrs[j%n*int(na)+j/n] = int64(le.Uint64(next(8)))
	}
	cats := make([]string, n*int(nc))
	for j := range cats {
		if len(b)-p < 4 || uint64(le.Uint32(b[p:])) > uint64(len(b)-p-4) {
			return nil, fmt.Errorf("rest: columnar insert body: cat %d overruns the body", j/n)
		}
		s := next(int(le.Uint32(next(4))))
		if !utf8.Valid(s) {
			return nil, fmt.Errorf("rest: columnar insert body: invalid UTF-8 in cat %d", j/n)
		}
		cats[j%n*int(nc)+j/n] = string(s)
	}
	if p != len(b) {
		return nil, fmt.Errorf("rest: columnar insert body: %d bytes after the last column", len(b)-p)
	}
	for i := range out {
		out[i].Vectors, out[i].Attrs, out[i].Cats = cut(vecs, i, int(nv)), cut(attrs, i, int(na)), cut(cats, i, int(nc))
	}
	return out, nil
}

// cut is row i of flat, which holds rows of k values each; nil when k is 0.
func cut[T any](flat []T, i, k int) []T {
	if k == 0 {
		return nil
	}
	return flat[i*k : (i+1)*k : (i+1)*k]
}
