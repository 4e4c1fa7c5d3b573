package rest

// The JSON codec of the hot bodies JSON clients send and receive: the
// single-vector search request and the insert request on the way in, the
// search response on the way out. The SDK sends and receives these as
// columns (columns.go). Anything else, and any body the strict scanner does
// not fully cover, goes through encoding/json, so the contract is
// encoding/json's bytes and json.Unmarshal's answer, faster.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"vectordb/internal/topk"
)

// Unmarshal is json.Unmarshal for a v that points at a zero value. A
// *SearchRequest or *InsertRequest is first read by the strict scanner; a
// body it does not fully cover goes to json.Unmarshal, which then decides.
func Unmarshal(data []byte, v any) error {
	var scanned bool
	switch v := v.(type) {
	case *SearchRequest:
		scanned = scan(data, v, (*scanner).searchRequest)
	case *InsertRequest:
		scanned = scan(data, v, (*scanner).insertRequest)
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

// list appends v, which is not nil, as a JSON array.
func list[T any](e *encoder, v []T, elem func(*encoder, T)) {
	e.raw("[")
	for i, x := range v {
		if i > 0 {
			e.raw(",")
		}
		elem(e, x)
	}
	e.raw("]")
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
