package rest

import (
	"encoding/binary"
	"encoding/json"
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
//	field: u32 length + bytes; u32 vectors, each u32 dim + dim 32-bit words
//	u32 weights + weights × f32
//	range (flag 2): attr, i64 lo, hi; IN (flag 4): attr, u32 values, each string
//
//	"VDBH", u32 version 1, u32 hits; ids: hits × i64; distances: hits × f32
//
// Without flag 1 a search carries no query vector or one; with it, one per
// vector field in schema order. Every string is a u32 length plus UTF-8
// bytes. Bodies carry vector words and weights as bits, so a binary
// field's packed words cross whatever float they read as; the collection's
// schema judges values by field kind, refusing a NaN or ±Inf in a float
// field or a weight. A VDBH distance is finite, as in the JSON reply. The
// bodies are canonical: a body a decoder takes is exactly what its encoder
// writes for what it decoded, so zero insert rows have no fields and an
// insert's vector field has a dimension. Error replies stay JSON. Both
// codecs read and write through package wal's.
const ColumnsType = "application/x-vectordb-columns"

const (
	searchMagic = "VDBQ\x01\x00\x00\x00" // and version 1
	hitsMagic   = "VDBH\x01\x00\x00\x00"
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
// is non-empty, anything else as JSON — so the server names a ragged
// batch's entity at fault. Columns carry vector words as bits; the server
// answers 400 to a NaN or ±Inf in a float field. A ragged batch that JSON
// cannot spell either (a binary word whose bits are a NaN) fails with the
// column encoder's error, which names the ragged row.
func Encode(v any) (body []byte, contentType string, err error) {
	var colErr error
	if r, ok := v.(InsertRequest); ok {
		if body, colErr = encodeColumns(r.Entities); colErr == nil {
			return body, ColumnsType, nil
		}
	}
	if body, err = json.Marshal(v); err != nil && colErr != nil {
		return nil, "", colErr
	}
	return body, "application/json", err
}

// encodeColumns writes es as a columnar body straight from the rows, or
// fails when the body cannot carry them: rows of different shapes, or an
// empty vector.
func encodeColumns(es []EntityJSON) ([]byte, error) {
	return wal.AppendRows(nil, len(es), func(i int) wal.Row {
		e := &es[i]
		return wal.Row{ID: e.ID, Vectors: e.Vectors, Attrs: e.Attrs, Cats: validCats(e.Cats)}
	})
}

// validCats is cats as encoding/json sends them: cats itself unless one
// is invalid UTF-8.
func validCats(cats []string) []string {
	out := cats
	for j, s := range cats {
		if !utf8.ValidString(s) {
			if &out[0] == &cats[0] { // still the caller's: copy before writing
				out = slices.Clone(cats)
			}
			out[j] = validUTF8(s)
		}
	}
	return out
}

// validUTF8 is s as encoding/json sends it, each invalid UTF-8 byte as
// U+FFFD.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// entities is es as core's rows.
func entities(es []EntityJSON) []core.Entity {
	rows := make([]core.Entity, len(es))
	for i, e := range es {
		rows[i] = core.Entity(e)
	}
	return rows
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
// drops it. A request with both Vector and Vectors fails here, as the body
// cannot carry it; vector words and weights go as bits, for the server's
// schema to judge.
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
	b = wal.AppendString(le.AppendUint32(b, flags), validUTF8(q.Field))
	b = le.AppendUint32(b, uint32(len(vecs)))
	for _, v := range vecs {
		b = wal.AppendFloats(le.AppendUint32(b, uint32(len(v))), v)
	}
	b = wal.AppendFloats(le.AppendUint32(b, uint32(len(q.Weights))), q.Weights)
	if r := q.rng; r != nil {
		b = le.AppendUint64(le.AppendUint64(wal.AppendString(b, validUTF8(r.Attr)), uint64(r.Lo)), uint64(r.Hi))
	}
	if in := q.in; in != nil {
		b = le.AppendUint32(wal.AppendString(b, validUTF8(in.Attr)), uint32(len(in.Values)))
		for _, v := range in.Values {
			b = wal.AppendString(b, validUTF8(v))
		}
	}
	return b, nil
}

// decodeSearch decodes a columnar search body. Every count is checked
// against the bytes left before anything sized by it is made; a body that
// is short, long, or carries invalid UTF-8, an unknown flag or more than
// one query vector without the per-field flag is an error.
func decodeSearch(b []byte) (query, error) {
	var q query
	r := wal.NewReader(b, searchMagic)
	q.K, q.Nprobe, q.Ef, q.SearchL = r.Int(), r.Int(), r.Int(), r.Int()
	flags := r.U32()
	if flags&^(perField|rangeTerm|inTerm) != 0 {
		r.Fail(fmt.Errorf("unknown flags %#x", flags))
	}
	q.Field = r.Str()
	switch n := r.Count(4); { // a vector is at least its dim
	case flags&perField != 0:
		q.Fields = make([][]float32, n)
		for i := range q.Fields {
			q.Fields[i] = r.Floats(r.Count(4))
		}
	case n > 1:
		r.Fail(fmt.Errorf("%d query vectors without the per-field flag", n))
	case n == 1:
		q.Vector = r.Floats(r.Count(4))
	}
	if w := r.Floats(r.Count(4)); len(w) > 0 {
		q.Weights = w
	}
	if flags&rangeTerm != 0 {
		q.rng = &core.RangeFilter{Attr: r.Str(), Lo: r.I64(), Hi: r.I64()}
	}
	if flags&inTerm != 0 {
		q.in = &core.InFilter{Attr: r.Str()}
		q.in.Values = make([]string, r.Count(4)) // a value is at least its length
		for i := range q.in.Values {
			q.in.Values[i] = r.Str()
		}
	}
	if err := r.End(); err != nil {
		return query{}, fmt.Errorf("rest: columnar search body: %w", err)
	}
	return q, nil
}

// finite reports whether a distance is neither NaN nor ±Inf (every
// exponent bit set), which no reply carries.
func finite(d float32) bool { return math.Float32bits(d)&0x7f800000 != 0x7f800000 }

// encodeHits writes a search's hits as a columnar reply; a NaN or ±Inf
// distance fails it, as it fails the JSON reply.
func encodeHits(rs []topk.Result) ([]byte, error) {
	b := le.AppendUint32(append(make([]byte, 0, len(hitsMagic)+4+12*len(rs)), hitsMagic...), uint32(len(rs)))
	for _, h := range rs {
		b = le.AppendUint64(b, uint64(h.ID))
	}
	for i, h := range rs {
		if !finite(h.Distance) {
			return nil, fmt.Errorf("rest: hit %d: distance %v is not finite", i, h.Distance)
		}
		b = le.AppendUint32(b, math.Float32bits(h.Distance))
	}
	return b, nil
}

// DecodeHits decodes a columnar search reply. Its hit count is checked
// against the body's length before the hits are made; a body that is short,
// long or carries a NaN or ±Inf distance is an error.
func DecodeHits(b []byte) ([]ResultJSON, error) {
	r := wal.NewReader(b, hitsMagic)
	n := r.Count(12) // an id and a distance
	ids, dists := r.Take(8*n), r.Take(4*n)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("rest: columnar search reply: %w", err)
	}
	hits := make([]ResultJSON, n)
	for i := range hits {
		d := math.Float32frombits(le.Uint32(dists[4*i:]))
		if !finite(d) {
			return nil, fmt.Errorf("rest: columnar search reply: hit %d: distance %v is not finite", i, d)
		}
		hits[i] = ResultJSON{ID: int64(le.Uint64(ids[8*i:])), Distance: d}
	}
	return hits, nil
}
