package rest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"unicode/utf8"

	"vectordb/internal/core"
	"vectordb/internal/topk"
)

// ColumnsType is the Content-Type of the SDK's binary bodies, little-endian
// columns so that no float is printed as text. The endpoint and the magic
// tell them apart. A bulk insert:
//
//	"VDBC", u32 version 1
//	u32 rows, vector fields, attrs, cats; then u32 dim per vector field
//	ids: rows × i64; vectors: per field, rows × dim f32
//	attrs: per attr, rows × i64; cats: per cat, per row u32 length + bytes
//
// A search, and its reply when the request's Accept names ColumnsType:
//
//	"VDBQ", u32 version 1
//	i64 k, nprobe, ef, search_l; u32 flags (1 per-field vectors, 2 range, 4 IN)
//	field: u32 length + bytes; u32 vectors, each u32 dim + dim × f32
//	u32 weights + weights × f32
//	range (flag 2): attr, i64 lo, hi; IN (flag 4): attr, u32 values, each string
//
//	"VDBH", u32 version 1, u32 hits; ids: hits × i64; distances: hits × f32
//
// Without flag 1 a search carries no query vector or one; with it, one per
// vector field in schema order. Every string is a u32 length plus UTF-8
// bytes. The bodies carry what JSON can, finite floats and
// UTF-8, and are canonical: a body a decoder takes is exactly what its
// encoder writes for what it decoded, so zero insert rows have no fields
// and an insert's vector field has a dimension. Error replies stay JSON.
const ColumnsType = "application/x-vectordb-columns"

const (
	columnsMagic  = "VDBC\x01\x00\x00\x00" // and version 1
	searchMagic   = "VDBQ\x01\x00\x00\x00"
	hitsMagic     = "VDBH\x01\x00\x00\x00"
	columnsHeader = 24         // magic, version and the four counts
	nonFinite     = 0x7f800000 // a float32's exponent bits: set in NaN and ±Inf
)

// The flags of a search body.
const (
	perField  = 1 << iota // the vectors are a multi-vector query's, one per field
	rangeTerm             // a range term follows the weights
	inTerm                // an IN term follows
)

var le = binary.LittleEndian

// Encode encodes the request body v and names its Content-Type: an
// InsertRequest as columns when its rows agree in shape and every vector
// is non-empty and finite, anything else as JSON — so the server names a
// ragged batch's entity at fault, and a NaN fails here.
func Encode(v any) (body []byte, contentType string, err error) {
	if r, ok := v.(InsertRequest); ok {
		if body, ok := encodeColumns(r.Entities); ok {
			return body, ColumnsType, nil
		}
	}
	body, err = json.Marshal(v)
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
			b = appendString(b, e.Cats[c])
		}
	}
	return b, true
}

// appendString appends s as a u32 length and its bytes, as encoding/json
// carries it: each invalid UTF-8 byte is U+FFFD.
func appendString(b []byte, s string) []byte {
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

// decodeInsert decodes an insert body: columns or an InsertRequest.
func decodeInsert(body []byte, contentType string) ([]core.Entity, error) {
	if contentType == ColumnsType {
		return decodeColumns(body)
	}
	var req InsertRequest
	err := json.Unmarshal(body, &req)
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

// query is a search body decoded from either encoding: the core request,
// and its filter terms by name for the collection's schema to resolve.
type query struct {
	core.Request
	rng *core.RangeFilter
	in  *core.InFilter
}

// query maps r onto a core request field for field, an empty vectors list
// being absent. What r then sets too much of (a vector or a filter beside
// vectors, weights without them) is the request error core answers.
func (r *SearchRequest) query() query {
	q := query{
		Request: core.Request{Vector: r.Vector, Weights: r.Weights, SearchOptions: core.SearchOptions{
			Field: r.Field, K: r.K, Nprobe: r.Nprobe, Ef: r.Ef, SearchL: r.SearchL}},
		rng: (*core.RangeFilter)(r.Filter),
		in:  (*core.InFilter)(r.CatFilter),
	}
	if len(r.Vectors) > 0 {
		q.Fields = r.Vectors
	}
	return q
}

// decodeQuery decodes a search body: columns or a SearchRequest.
func decodeQuery(body []byte, contentType string) (query, error) {
	if contentType == ColumnsType {
		return decodeSearch(body)
	}
	var r SearchRequest
	err := json.Unmarshal(body, &r)
	return r.query(), err
}

// EncodeSearch writes r as a columnar search body carrying what its JSON
// body carries: an empty Vector, Vectors or Weights is absent, as omitempty
// drops it. A NaN or ±Inf fails here, as it fails encoding/json, and so
// does a request with both Vector and Vectors, which the body cannot carry.
func EncodeSearch(r SearchRequest) ([]byte, error) {
	if len(r.Vector) == 0 {
		r.Vector = nil
	}
	if len(r.Weights) == 0 {
		r.Weights = nil
	}
	q := r.query()
	return encodeSearch(&q)
}

var errNonFinite = errors.New("NaN or ±Inf")

// encodeSearch writes q as a columnar search body.
func encodeSearch(q *query) ([]byte, error) {
	vecs, flags := q.Fields, uint32(0)
	switch {
	case q.Fields != nil && q.Vector != nil:
		return nil, fmt.Errorf("rest: a columnar search carries a vector or per-field vectors, not both")
	case q.Fields != nil:
		flags |= perField
	case q.Vector != nil:
		vecs = [][]float32{q.Vector}
	}
	if q.rng != nil {
		flags |= rangeTerm
	}
	if q.in != nil {
		flags |= inTerm
	}
	b := append(make([]byte, 0, 128+len(q.Field)+4*len(q.Vector)), searchMagic...)
	for _, n := range [...]int{q.K, q.Nprobe, q.Ef, q.SearchL} {
		b = le.AppendUint64(b, uint64(n))
	}
	b = appendString(le.AppendUint32(b, flags), q.Field)
	finite := true
	floats := func(v []float32) {
		b = le.AppendUint32(b, uint32(len(v)))
		for _, x := range v {
			finite = finite && math.Float32bits(x)&nonFinite != nonFinite
			b = le.AppendUint32(b, math.Float32bits(x))
		}
	}
	b = le.AppendUint32(b, uint32(len(vecs)))
	for _, v := range vecs {
		floats(v)
	}
	if floats(q.Weights); !finite {
		return nil, fmt.Errorf("rest: columnar search: %w in a query vector or weight", errNonFinite)
	}
	if r := q.rng; r != nil {
		b = le.AppendUint64(le.AppendUint64(appendString(b, r.Attr), uint64(r.Lo)), uint64(r.Hi))
	}
	if in := q.in; in != nil {
		b = le.AppendUint32(appendString(b, in.Attr), uint32(len(in.Values)))
		for _, v := range in.Values {
			b = appendString(b, v)
		}
	}
	return b, nil
}

// decodeSearch decodes a columnar search body. Every count is checked
// against the bytes left before anything sized by it is made; a body that
// is short, long, or carries a NaN, ±Inf, invalid UTF-8, an unknown flag or
// more than one query vector without the per-field flag is an error.
func decodeSearch(b []byte) (query, error) {
	var q query
	if len(b) < len(searchMagic) || string(b[:len(searchMagic)]) != searchMagic {
		return q, fmt.Errorf("rest: columnar search body: bad magic or version")
	}
	r := reader{b: b[len(searchMagic):]}
	q.K, q.Nprobe, q.Ef, q.SearchL = r.int(), r.int(), r.int(), r.int()
	flags := r.word(4)
	if flags&^(perField|rangeTerm|inTerm) != 0 {
		r.fail(fmt.Errorf("unknown flags %#x", flags))
	}
	q.Field = r.str()
	switch n := r.count(4); { // a vector is at least its dim
	case flags&perField != 0:
		q.Fields = make([][]float32, n)
		for i := range q.Fields {
			q.Fields[i] = r.floats(r.count(4))
		}
	case n > 1:
		r.fail(fmt.Errorf("%d query vectors without the per-field flag", n))
	case n == 1:
		q.Vector = r.floats(r.count(4))
	}
	if w := r.floats(r.count(4)); len(w) > 0 {
		q.Weights = w
	}
	if flags&rangeTerm != 0 {
		q.rng = &core.RangeFilter{Attr: r.str(), Lo: r.i64(), Hi: r.i64()}
	}
	if flags&inTerm != 0 {
		q.in = &core.InFilter{Attr: r.str()}
		q.in.Values = make([]string, r.count(4)) // a value is at least its length
		for i := range q.in.Values {
			q.in.Values[i] = r.str()
		}
	}
	if len(r.b) > 0 {
		r.fail(fmt.Errorf("%d bytes after the last term", len(r.b)))
	}
	if r.err != nil {
		return query{}, fmt.Errorf("rest: columnar search body: %w", r.err)
	}
	return q, nil
}

// reader takes a body's values in order. The first value that overruns
// the body or is not what JSON can carry sets err; every read after it
// takes nothing and returns a zero value.
type reader struct {
	b   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err, r.b = err, nil
	}
}

func (r *reader) take(n int) []byte {
	if uint(n) > uint(len(r.b)) {
		r.fail(errors.New("truncated"))
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// word reads an n-byte little-endian word, n at most 8.
func (r *reader) word(n int) uint64 {
	var w [8]byte
	copy(w[:], r.take(n))
	return le.Uint64(w[:])
}

func (r *reader) i64() int64 { return int64(r.word(8)) }

func (r *reader) int() int {
	n := r.i64()
	if int64(int(n)) != n {
		r.fail(fmt.Errorf("%d overflows an int", n))
	}
	return int(n)
}

// count reads a u32 count of items of at least size bytes each, checked
// against the bytes left.
func (r *reader) count(size int) int {
	n := r.word(4)
	if n > uint64(len(r.b)/size) {
		r.fail(fmt.Errorf("a count of %d overruns the body", n))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	v := r.take(int(r.word(4)))
	if !utf8.Valid(v) {
		r.fail(errors.New("invalid UTF-8"))
	}
	return string(v)
}

// floats reads n float32s, none of them NaN or ±Inf.
func (r *reader) floats(n int) []float32 {
	src := r.take(4 * n)
	if src == nil {
		return nil
	}
	v := make([]float32, n)
	for i := range v {
		u := le.Uint32(src[4*i:])
		if u&nonFinite == nonFinite {
			r.fail(errNonFinite)
			return nil
		}
		v[i] = math.Float32frombits(u)
	}
	return v
}

// encodeHits writes a search's hits as a columnar reply; a NaN or ±Inf
// distance fails it, as it fails the JSON reply.
func encodeHits(rs []topk.Result) ([]byte, error) {
	b := le.AppendUint32(append(make([]byte, 0, len(hitsMagic)+4+12*len(rs)), hitsMagic...), uint32(len(rs)))
	for _, h := range rs {
		b = le.AppendUint64(b, uint64(h.ID))
	}
	for i, h := range rs {
		if math.Float32bits(h.Distance)&nonFinite == nonFinite {
			return nil, fmt.Errorf("rest: hit %d: distance %v: %w", i, h.Distance, errNonFinite)
		}
		b = le.AppendUint32(b, math.Float32bits(h.Distance))
	}
	return b, nil
}

// DecodeHits decodes a columnar search reply. Its hit count is checked
// against the body's length before the hits are made; a body that is short,
// long or carries a NaN or ±Inf distance is an error.
func DecodeHits(b []byte) ([]ResultJSON, error) {
	const header = len(hitsMagic) + 4
	if len(b) < header || string(b[:len(hitsMagic)]) != hitsMagic {
		return nil, fmt.Errorf("rest: columnar search reply: bad magic or version")
	}
	n := int64(le.Uint32(b[len(hitsMagic):]))
	if int64(len(b)-header) != 12*n {
		return nil, fmt.Errorf("rest: columnar search reply: %d hits in %d bytes", n, len(b))
	}
	ids, dists := b[header:], b[header+8*int(n):]
	hits := make([]ResultJSON, n)
	for i := range hits {
		u := le.Uint32(dists[4*i:])
		if u&nonFinite == nonFinite {
			return nil, fmt.Errorf("rest: columnar search reply: hit %d: %w", i, errNonFinite)
		}
		hits[i] = ResultJSON{ID: int64(le.Uint64(ids[8*i:])), Distance: math.Float32frombits(u)}
	}
	return hits, nil
}
