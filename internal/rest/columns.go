package rest

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"vectordb/internal/core"
	"vectordb/internal/topk"
	"vectordb/internal/wal"
)

// ColumnsType is the Content-Type of the SDK's binary bodies, little-endian
// columns so that no float is printed as text. The endpoint and the magic
// tell them apart. A bulk insert is a VDBC body (wal.Magic), the batch the
// collection's log takes. A search, and its reply when the request's
// Accept names ColumnsType:
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
	searchMagic = "VDBQ\x01\x00\x00\x00" // and version 1
	hitsMagic   = "VDBH\x01\x00\x00\x00"
	nonFinite   = 0x7f800000 // a float32's exponent bits: set in NaN and ±Inf
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

// encodeColumns writes es as a columnar body straight from the rows, or
// reports false when the body cannot carry them: rows of different
// shapes, an empty vector, a NaN or ±Inf.
func encodeColumns(es []EntityJSON) ([]byte, bool) {
	body, err := wal.AppendRows(nil, len(es), func(i int) wal.Row {
		e := &es[i]
		return wal.Row{ID: e.ID, Vectors: e.Vectors, Attrs: e.Attrs, Cats: validCats(e.Cats)}
	})
	return body, err == nil
}

// validCats is cats as encoding/json sends them, each invalid UTF-8 byte
// as U+FFFD: cats itself unless one is invalid.
func validCats(cats []string) []string {
	out := cats
	for j, s := range cats {
		if !utf8.ValidString(s) {
			if &out[0] == &cats[0] { // still the caller's: copy before writing
				out = slices.Clone(cats)
			}
			out[j] = string([]rune(s))
		}
	}
	return out
}

// entities is es as core's rows.
func entities(es []EntityJSON) []core.Entity {
	rows := make([]core.Entity, len(es))
	for i, e := range es {
		rows[i] = core.Entity(e)
	}
	return rows
}

// appendString appends s as a u32 length and its bytes, as encoding/json
// carries it: each invalid UTF-8 byte is U+FFFD.
func appendString(b []byte, s string) []byte {
	if !utf8.ValidString(s) {
		s = string([]rune(s))
	}
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

// decodeInsert decodes an insert body, columns or an InsertRequest whose
// rows agree in shape, into one batch.
func decodeInsert(body []byte, contentType string) (*wal.Batch, error) {
	if contentType == ColumnsType {
		return wal.DecodeBody(body)
	}
	var req InsertRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return core.Columns(entities(req.Entities))
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
