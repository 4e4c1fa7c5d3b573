package rest

// The codec of the hot bodies: the single-vector search request, its
// response and the insert request. Anything else, and any body the strict
// scanner does not fully cover, goes through encoding/json, so the
// contract is encoding/json's bytes and json.Unmarshal's answer, faster.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"vectordb/internal/topk"
)

// Marshal is json.Marshal. A SearchRequest with one query vector and no
// categorical filter, and an InsertRequest, are appended directly; a large
// InsertRequest is encoded in shards on up to GOMAXPROCS goroutines.
func Marshal(v any) ([]byte, error) {
	switch v := v.(type) {
	case SearchRequest:
		if len(v.Vectors) > 0 || len(v.Weights) > 0 || v.CatFilter != nil {
			return json.Marshal(v)
		}
		e := encoder{b: make([]byte, 0, 128+len(v.Field)+floatBytes*len(v.Vector))}
		e.searchRequest(&v)
		return e.done()
	case InsertRequest:
		n := insertBytes(v.Entities)
		return encodeInsert(v, n, shardCount(n), goFanout)
	}
	return json.Marshal(v)
}

// Unmarshal is json.Unmarshal for a v that points at a zero value. A
// *SearchRequest, *InsertRequest or *SearchResponse is first read by the
// strict scanner; a body it does not fully cover goes to json.Unmarshal,
// which then decides. A large insert body is scanned in shards on up to
// GOMAXPROCS goroutines.
func Unmarshal(data []byte, v any) error { return unmarshal(data, v, goFanout) }

// unmarshal is Unmarshal with a large insert body's shards run by run.
func unmarshal(data []byte, v any, run fanout) error {
	var scanned bool
	switch v := v.(type) {
	case *SearchRequest:
		scanned = scan(data, v, (*scanner).searchRequest)
	case *InsertRequest:
		scanned = scanInsert(data, v, shardCount(len(data)), run)
	case *SearchResponse:
		scanned = scan(data, v, (*scanner).searchResponse)
	}
	if scanned {
		return nil
	}
	return json.Unmarshal(data, v)
}

// encodeSearchResponse encodes the SearchResponse of rs straight from the
// engine's results; a nil rs is an empty list, as the handler always sent.
func encodeSearchResponse(rs []topk.Result) ([]byte, error) {
	if rs == nil {
		rs = []topk.Result{}
	}
	// `{"id":123456,"distance":12.345678},` is 35 bytes.
	e := encoder{b: make([]byte, 0, 16+40*len(rs))}
	e.raw(`{"results":`)
	list(&e, rs, (*encoder).result)
	e.raw("}")
	return e.done()
}

// shardFloor is the least body a codec shard is given, in bytes: about a
// millisecond of encoding or scanning floats (BenchmarkInsertWire), so a
// shard's work outweighs starting it, and every search body and small
// insert stays serial.
const shardFloor = 192 << 10

// shardCount is how many shards an insert body of n bytes is cut into:
// one per shardFloor bytes, at most one per core.
func shardCount(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n/shardFloor)) }

// fanout runs fn(0)..fn(n-1) and returns when all have finished.
type fanout func(n int, fn func(int))

// goFanout is the SDK's fanout: fn(0) on the caller and the rest on a
// goroutine each.
func goFanout(n int, fn func(int)) {
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for j := 1; j < n; j++ {
		go func() {
			defer wg.Done()
			fn(j)
		}()
	}
	fn(0)
	wg.Wait()
}

// floatBytes is what a float32 and its comma usually take ("-1.2345678e-12,");
// a longer one (up to 22 bytes) only makes append grow the buffer.
const floatBytes = 16

// encoder appends one body in its type's field order with its omitempty
// rules; the first value encoding/json cannot encode is its err.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) done() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

func (e *encoder) raw(s string) *encoder {
	e.b = append(e.b, s...)
	return e
}

func (e *encoder) int(n int64) { e.b = strconv.AppendInt(e.b, n, 10) }

// nonZero appends an omitempty int member, key and all.
func (e *encoder) nonZero(key string, n int) {
	if n != 0 {
		e.raw(key).int(int64(n))
	}
}

// float appends f as encoding/json prints a float32. NaN and ±Inf are
// encoding/json's error.
func (e *encoder) float(f float32) {
	if f64 := float64(f); math.IsNaN(f64) || math.IsInf(f64, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f64, 'g', -1, 32)}
		}
		return
	}
	e.b = appendFloat32(e.b, f)
}

func (e *encoder) floats(v []float32) { list(e, v, (*encoder).float) }

// str appends s quoted by encoding/json itself: the hot bodies carry at
// most a field or attribute name, and its escapes are many.
func (e *encoder) str(s string) {
	q, _ := json.Marshal(s) // a string always encodes
	e.b = append(e.b, q...)
}

// list appends v as a JSON array, or null when v is nil.
func list[T any](e *encoder, v []T, elem func(*encoder, T)) {
	if v == nil {
		e.raw("null")
		return
	}
	e.raw("[")
	for i, x := range v {
		if i > 0 {
			e.raw(",")
		}
		elem(e, x)
	}
	e.raw("]")
}

// searchRequest appends r, which has no Vectors, Weights or CatFilter.
func (e *encoder) searchRequest(r *SearchRequest) {
	e.raw("{")
	if r.Field != "" {
		e.raw(`"field":`).str(r.Field)
		e.raw(",")
	}
	if len(r.Vector) > 0 {
		e.raw(`"vector":`).floats(r.Vector)
		e.raw(",")
	}
	e.raw(`"k":`).int(int64(r.K))
	e.nonZero(`,"nprobe":`, r.Nprobe)
	e.nonZero(`,"ef":`, r.Ef)
	e.nonZero(`,"search_l":`, r.SearchL)
	if f := r.Filter; f != nil {
		e.raw(`,"filter":{"attr":`).str(f.Attr)
		e.raw(`,"lo":`).int(f.Lo)
		e.raw(`,"hi":`).int(f.Hi)
		e.raw("}")
	}
	e.raw("}")
}

// insertBytes is the capacity an insert body of es is encoded into.
func insertBytes(es []EntityJSON) int {
	n := 16
	for _, x := range es {
		n += 48 + 21*len(x.Attrs)
		for _, vec := range x.Vectors {
			n += floatBytes * len(vec)
		}
	}
	return n
}

// encodeInsert appends r into a buffer of capacity n, its entities cut
// into up to shards contiguous ranges that run encodes side by side and
// that are then joined: the bytes are the serial encoding's, and the
// error is the first one in entity order, as the serial encoding meets it.
func encodeInsert(r InsertRequest, n, shards int, run fanout) ([]byte, error) {
	es := r.Entities
	e := encoder{b: make([]byte, 0, n)}
	if es == nil {
		return e.raw(`{"entities":null}`).done()
	}
	e.raw(`{"entities":[`)
	shards = max(1, min(shards, len(es)))
	parts := make([]encoder, shards)
	parts[0] = e
	run(shards, func(j int) {
		part := es[j*len(es)/shards : (j+1)*len(es)/shards]
		p := &parts[j]
		if j > 0 {
			p.b = make([]byte, 0, insertBytes(part))
		}
		for i, x := range part {
			if i > 0 {
				p.raw(",")
			}
			p.entity(x)
		}
	})
	e = parts[0]
	for _, p := range parts[1:] {
		e.b = append(append(e.b, ','), p.b...)
		if e.err == nil {
			e.err = p.err
		}
	}
	return e.raw("]}").done()
}

func (e *encoder) entity(x EntityJSON) {
	e.raw(`{"id":`).int(x.ID)
	list(e.raw(`,"vectors":`), x.Vectors, (*encoder).floats)
	if len(x.Attrs) > 0 {
		list(e.raw(`,"attrs":`), x.Attrs, (*encoder).int)
	}
	if len(x.Cats) > 0 {
		list(e.raw(`,"cats":`), x.Cats, (*encoder).str)
	}
	e.raw("}")
}

func (e *encoder) result(r topk.Result) {
	e.raw(`{"id":`).int(r.ID)
	e.raw(`,"distance":`).float(r.Distance)
	e.raw("}")
}

// scanner reads one body in a single strict pass covering JSON's number
// grammar, any whitespace and any key order. On anything else — null, an
// escaped, case-variant, unknown or repeated key, a string with escapes
// or non-ASCII bytes, a number outside its type, a syntax error, trailing
// bytes — ok turns false and json.Unmarshal answers.
type scanner struct {
	b  []byte
	i  int
	ok bool
}

// scan reads data into the zero value v and reports whether the scanner
// covered all of it; when it did not, v is zero again.
func scan[T any](data []byte, v *T, read func(*scanner, *T)) bool {
	s := scanner{b: data, ok: true}
	read(&s, v)
	if s.ok && s.skip() == 0 && s.i == len(s.b) {
		return true
	}
	var zero T
	*v = zero
	return false
}

// skip advances past whitespace and returns the next byte, 0 at the end.
func (s *scanner) skip() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c as the next byte after whitespace.
func (s *scanner) eat(c byte) {
	if s.ok && s.skip() == c {
		s.i++
		return
	}
	s.ok = false
}

// open consumes an object's or array's opening byte and reports whether a
// member follows.
func (s *scanner) open(open, close byte) bool {
	s.eat(open)
	if s.ok && s.skip() == close {
		s.i++
		return false
	}
	return s.ok
}

// next consumes what follows a member and reports whether another member
// follows.
func (s *scanner) next(close byte) bool {
	if s.ok {
		switch s.skip() {
		case ',':
			s.i++
			return true
		case close:
			s.i++
			return false
		}
	}
	s.ok = false
	return false
}

// plain reads a string of printable ASCII without escapes, which
// json.Unmarshal keeps byte for byte.
func (s *scanner) plain() []byte {
	s.eat('"')
	for start := s.i; s.ok && s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1]
		case c < 0x20 || c >= 0x80 || c == '\\':
			s.ok = false
		}
	}
	s.ok = false
	return nil
}

func (s *scanner) str() string { return string(s.plain()) }

// object reads an object, calling member for each key after its colon.
// A key must be one of keys, once: json.Unmarshal also folds case,
// unescapes, skips unknown keys and merges a repeated one into the first.
func (s *scanner) object(keys []string, member func(key string)) {
	var seen uint
	for more := s.open('{', '}'); more; more = s.next('}') {
		k := s.plain()
		s.eat(':')
		i := 0
		for i < len(keys) && string(k) != keys[i] {
			i++
		}
		if !s.ok || i == len(keys) || seen&(1<<i) != 0 {
			s.ok = false
			return
		}
		seen |= 1 << i
		member(keys[i])
	}
}

func (s *scanner) int() int {
	n := s.int64()
	s.ok = s.ok && int64(int(n)) == n
	return int(n)
}

// array reads a JSON array with elem reading each element. "[]" is an
// empty, non-nil slice, as json.Unmarshal makes it.
func array[T any](s *scanner, capacity int, elem func(*scanner) T) []T {
	v := make([]T, 0, capacity)
	for more := s.open('[', ']'); more; more = s.next(']') {
		v = append(v, elem(s))
	}
	return v
}

// numbers is the capacity of the array of numbers that starts at the next
// byte: its commas plus one.
func (s *scanner) numbers() int {
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		return bytes.Count(rest[:end], []byte{','}) + 1
	}
	return 0
}

func (s *scanner) float32s() []float32 { return array(s, s.numbers(), (*scanner).float32) }

func (s *scanner) searchRequest(r *SearchRequest) {
	s.object([]string{"field", "vector", "k", "nprobe", "ef", "search_l", "filter"}, func(key string) {
		switch key {
		case "field":
			r.Field = s.str()
		case "vector":
			r.Vector = s.float32s()
		case "k":
			r.K = s.int()
		case "nprobe":
			r.Nprobe = s.int()
		case "ef":
			r.Ef = s.int()
		case "search_l":
			r.SearchL = s.int()
		case "filter":
			f := new(FilterJSON)
			r.Filter = f
			s.object([]string{"attr", "lo", "hi"}, func(key string) {
				switch key {
				case "attr":
					f.Attr = s.str()
				case "lo":
					f.Lo = s.int64()
				case "hi":
					f.Hi = s.int64()
				}
			})
		}
	})
}

// scanInsert reads data into the zero r as scan with insertRequest does,
// taking the sharded scan's entities when it covers the body.
func scanInsert(data []byte, r *InsertRequest, shards int, run fanout) bool {
	if shards > 1 {
		if es, ok := scanInsertShards(data, shards, run); ok {
			r.Entities = es
			return true
		}
	}
	return scan(data, r, (*scanner).insertRequest)
}

// scanInsertShards cuts the entities array of the insert body data at up
// to shards−1 guessed element boundaries — a '}' then a ',' then a '{',
// whitespace around the comma — and has run scan each piece with the
// strict scanner, bounded at its piece's end. It reports whether the
// pieces cover the body: each is one or more entities separated by commas
// and ends exactly where the next one's separating comma is, the first
// begins right after `{"entities":[` and the last ends at the body's
// closing `]}`. Then the serial scan reads the same entities, since each
// piece starts where the serial scan would start its next entity, and a
// guess inside a string fails the piece whose scan the cut truncates.
func scanInsertShards(data []byte, shards int, run fanout) ([]EntityJSON, bool) {
	s := scanner{b: data, ok: true}
	s.eat('{')
	key := s.plain()
	s.eat(':')
	s.eat('[')
	end := len(bytes.TrimRight(data, " \t\n\r")) - 1
	if !s.ok || string(key) != "entities" || data[end] != '}' {
		return nil, false
	}
	if end = len(bytes.TrimRight(data[:end], " \t\n\r")) - 1; data[end] != ']' {
		return nil, false
	}
	// Piece j lies between bounds[j] and bounds[j+1]: the '[', the commas
	// cut at and the closing ']'.
	bounds := []int{s.i - 1}
	for j := 1; j < shards; j++ {
		c := cutAfter(data[:end], max(s.i+j*(end-s.i)/shards, bounds[j-1]+1))
		if c < 0 {
			break
		}
		bounds = append(bounds, c)
	}
	if bounds = append(bounds, end); len(bounds) < 3 {
		return nil, false
	}
	// A piece that does not cover its bytes is left nil.
	pieces := make([][]EntityJSON, len(bounds)-1)
	run(len(pieces), func(j int) {
		p := scanner{b: data[:bounds[j+1]], i: bounds[j] + 1, ok: true}
		var es []EntityJSON
		for more := true; more && p.ok; {
			es = append(es, p.entity())
			if more = p.skip() != 0; more {
				p.eat(',')
			}
		}
		// skip also answers 0 at a NUL byte, so the piece counts only if
		// the scanner stands at its bound.
		if p.ok && p.i == len(p.b) {
			pieces[j] = es
		}
	})
	for _, piece := range pieces {
		if piece == nil {
			return nil, false
		}
	}
	return slices.Concat(pieces...), true
}

// cutAfter returns the position of the first comma at or after from in b
// that has a '}' before it and a '{' after it, whitespace aside, or -1.
func cutAfter(b []byte, from int) int {
	for {
		i := bytes.IndexByte(b[from:], '}')
		if i < 0 {
			return -1
		}
		s := scanner{b: b, i: from + i + 1}
		if s.skip() == ',' {
			c := s.i
			s.i++
			if s.skip() == '{' {
				return c
			}
		}
		from = s.i
	}
}

func (s *scanner) insertRequest(r *InsertRequest) {
	s.object([]string{"entities"}, func(string) { r.Entities = array(s, 0, (*scanner).entity) })
}

func (s *scanner) entity() (e EntityJSON) {
	s.object([]string{"id", "vectors", "attrs", "cats"}, func(key string) {
		switch key {
		case "id":
			e.ID = s.int64()
		case "vectors":
			e.Vectors = array(s, 1, (*scanner).float32s)
		case "attrs":
			e.Attrs = array(s, s.numbers(), (*scanner).int64)
		case "cats":
			e.Cats = array(s, 0, (*scanner).str)
		}
	})
	return e
}

func (s *scanner) searchResponse(r *SearchResponse) {
	s.object([]string{"results"}, func(string) {
		// One '{' per hit after the body's own is the capacity the
		// encoder's output needs.
		r.Results = array(s, bytes.Count(s.b, []byte{'{'})-1, (*scanner).result)
	})
}

func (s *scanner) result() (r ResultJSON) {
	s.object([]string{"id", "distance"}, func(key string) {
		switch key {
		case "id":
			r.ID = s.int64()
		case "distance":
			r.Distance = s.float32()
		}
	})
	return r
}
