package rest

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vectordb/internal/topk"
)

// wireBody is one of the three codec bodies, seen by the differential
// check: the request bodies' scanners, and the response's encoder next to
// the bytes encoding/json writes for the same value.
type wireBody[T any] struct {
	scan     func([]byte, *T) bool
	reencode func(T) (codec, std []byte, err error)
}

var (
	searchRequestWire = wireBody[SearchRequest]{
		scan: func(b []byte, r *SearchRequest) bool { return scan(b, r, (*scanner).searchRequest) },
	}
	insertRequestWire = wireBody[InsertRequest]{
		scan: func(b []byte, r *InsertRequest) bool { return scan(b, r, (*scanner).insertRequest) },
	}
	// The handler encodes straight from the engine's results and always
	// sends a list, so a decoded null list re-encodes as [].
	searchResponseWire = wireBody[SearchResponse]{
		reencode: func(r SearchResponse) ([]byte, []byte, error) {
			rs := make([]topk.Result, len(r.Results))
			for i, x := range r.Results {
				rs[i] = topk.Result(x)
			}
			codec, err := encodeSearchResponse(rs)
			if err != nil {
				return nil, nil, err
			}
			if r.Results == nil {
				r.Results = []ResultJSON{}
			}
			std, err := json.Marshal(r)
			return codec, std, err
		},
	}
)

// check runs one body through json.Unmarshal, Unmarshal and the scanner
// alone, failing t unless all agree, and reports whether the scanner took
// the body; a body with an encoder re-encodes as encoding/json does.
func (w wireBody[T]) check(t *testing.T, data []byte) (scanned bool) {
	t.Helper()
	var want, got, fast T
	wantErr := json.Unmarshal(data, &want)
	gotErr := Unmarshal(data, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: Unmarshal error %v, json.Unmarshal error %v", data, gotErr, wantErr)
	}
	scanned = w.scan != nil && w.scan(data, &fast)
	if scanned && wantErr != nil {
		t.Fatalf("%q: scanner accepted what json.Unmarshal rejects: %v", data, wantErr)
	}
	if wantErr != nil {
		return false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: Unmarshal = %+v, json.Unmarshal = %+v", data, got, want)
	}
	if scanned && !reflect.DeepEqual(fast, want) {
		t.Fatalf("%q: scanner = %+v, json.Unmarshal = %+v", data, fast, want)
	}
	if w.reencode == nil {
		return scanned
	}
	codec, std, err := w.reencode(got)
	if err != nil {
		t.Fatalf("%q: re-encoding %+v: %v", data, got, err)
	}
	if !bytes.Equal(codec, std) {
		t.Fatalf("%q: re-encoded as\n%s\nencoding/json writes\n%s", data, codec, std)
	}
	return scanned
}

// wireNumbers are number literals on both sides of JSON's grammar and of
// the target types' ranges, with whether json.Unmarshal takes each into a
// float32 and into an int64.
var wireNumbers = []struct {
	lit        string
	float, int bool
}{
	{"0", true, true}, {"-0", true, true}, {"1e-7", true, false}, {"1E+2", true, false},
	{"-1.5e-3", true, false}, {"3.4028235e38", true, false}, {"1e-50", true, false},
	{"1.0", true, false}, {"9223372036854775807", true, true},
	{"-9223372036854775808", true, true}, {"9223372036854775808", true, false},
	{"1e39", false, false}, {"01", false, false}, {"+1", false, false}, {".5", false, false},
	{"1.", false, false}, {"1e", false, false}, {"-", false, false}, {"0x10", false, false},
	{"NaN", false, false},
	// The exact path's edges: a float32 midpoint (rounds to even), a
	// 20-digit mantissa, powers of ten just outside 10^±22, float32's
	// overflow and underflow, zeros, and int64 one past either end.
	{"16777217", true, true}, {"12345678901234567890", true, false}, {"1e23", true, false},
	{"1e-23", true, false}, {"3.4028236e38", false, false}, {"3.5e38", false, false},
	{"1e-46", true, false}, {"-0.0e5", true, false}, {"0e400", true, false},
	{"-9223372036854775809", true, false},
}

// wireSeeds maps each seed body to whether the scanner takes it: bodies
// the SDK and the handler send, with any whitespace and key order, are its;
// case-variant and escaped keys, null, unknown and repeated keys, number
// literals outside the grammar or the target type, truncations and
// trailing bytes are json.Unmarshal's.
type wireSeeds map[string]bool

func (s wireSeeds) add(scanned bool, bodies ...string) {
	for _, b := range bodies {
		s[b] = scanned
	}
}

// numbers adds body with each wire number in place of its %s; intField says
// which of the number's verdicts applies.
func (s wireSeeds) numbers(body string, intField bool) {
	for _, n := range wireNumbers {
		s[strings.Replace(body, "%s", n.lit, 1)] = n.float && !intField || n.int && intField
	}
}

// truncations adds every proper prefix of body.
func (s wireSeeds) truncations(body string) {
	for n := 0; n < len(body); n++ {
		s[body[:n]] = false
	}
}

func mustMarshal(t testing.TB, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func searchRequestSeeds(t testing.TB) wireSeeds {
	sdk := mustMarshal(t, SearchRequest{Vector: []float32{0.25, -1, 3e-7}, K: 10, Nprobe: 4})
	s := wireSeeds{}
	s.add(true,
		sdk,
		mustMarshal(t, SearchRequest{Field: "v", Vector: []float32{1, 2}, K: 5, Ef: 64, SearchL: 32,
			Filter: &FilterJSON{Attr: "price", Lo: -5, Hi: 1 << 40}}),
		mustMarshal(t, SearchRequest{K: 1}),
		" {\n\t\"k\" : 5 ,\r\n \"vector\" : [ 1 , 2.5E-3 ] , \"filter\" : { } } \n",
		`{"filter":{"hi":9,"lo":1,"attr":"price"},"search_l":2,"k":3,"vector":[0.5],"field":"v"}`,
		`{"vector":[],"k":0}`,
	)
	s.add(false,
		`{"Vector":[1],"K":1}`,
		`{"vector":[1],"k":1,"FILTER":{"attr":"a","lo":1,"hi":2}}`,
		`{"\u0076ector":[1],"k":1}`,
		`{"vector":[1],"k":1,"field":"\u0076"}`,
		`{"vector":[1],"k":1,"field":"é<>"}`,
		`null`, `{"vector":null,"k":1}`, `{"filter":null,"k":1}`, `{"k":null}`,
		`{"vector":[1],"k":1,"extra":true}`,
		`{"vectors":[[1],[2]],"weights":[0.5,0.5],"k":1}`,
		`{"vector":[1],"k":1,"cat_filter":{"attr":"c","values":["x"]}}`,
		`{"k":1,"k":2}`,
		`{"filter":{"attr":"a","lo":1},"filter":{"hi":2}}`,
		`{"vector":[1,1],"k":1}{"garbage`,
		`{"vector":[1,1],"k":1} x`,
		`{"vector":[1,1],"k":"1"}`,
		`[]`, ``, ` `,
	)
	s.numbers(`{"vector":[%s],"k":1}`, false)
	s.numbers(`{"vector":[1],"k":%s}`, true)
	s.numbers(`{"k":1,"filter":{"attr":"a","lo":%s,"hi":1}}`, true)
	s.truncations(sdk)
	return s
}

func insertRequestSeeds(t testing.TB) wireSeeds {
	sdk := mustMarshal(t, InsertRequest{Entities: []EntityJSON{
		{ID: 1, Vectors: [][]float32{{0.5, -2}}, Attrs: []int64{7}},
		{ID: -9, Vectors: [][]float32{{1e-7, 1e21}, {}}, Cats: []string{"red", "a b"}},
	}})
	s := wireSeeds{}
	s.add(true,
		sdk,
		mustMarshal(t, InsertRequest{Entities: []EntityJSON{}}),
		"\t{ \"entities\" : [ { \"cats\" : [ \"x\" ] , \"attrs\" : [ 1 , -2 ] , \"vectors\" : [ [ 1 ] ] , \"id\" : 3 } ] }\r\n",
		`{"entities":[{"vectors":[[]],"attrs":[]},{}]}`,
		`{}`,
	)
	s.add(false,
		mustMarshal(t, InsertRequest{}),
		`{"Entities":[]}`,
		`{"entities":[{"ID":1,"vectors":[[1]]}]}`,
		`{"entities":[{"i\u0064":1,"vectors":[[1]]}]}`,
		`{"entities":[null]}`, `{"entities":[{"id":1,"vectors":[null]}]}`,
		`{"entities":[{"id":1,"vectors":[[1]],"attrs":null}]}`,
		`{"entities":[{"id":1,"vectors":[[1]],"extra":{}}]}`,
		`{"entities":[{"id":1,"id":2}]}`,
		`{"entities":[{"id":1,"attrs":[5]}],"entities":[{"id":2}]}`,
		`{"entities":[{"id":1,"vectors":[[1]],"cats":["\n"]}]}`,
		`{"entities":[{"id":1,"vectors":[[1,2]]}]} xyz`,
		`{"entities":[{"id":1,"vectors":[[1,2]]}]}]`,
		`{"entities":[{"id":1,"vectors":[[1,2],]}]}`,
		// A quote inside a category is escaped.
		`{"entities":[{"id":1,"cats":["},{\"id\":2"]},{"id":3},{"id":4}]}`,
		// A repeated key inside or around the list.
		`{"entities":[{"id":1},{"id":2,"id":5},{"id":3},{"id":4}]}`,
		`{"entities":[{"id":1},{"id":2}],"entities":[{"id":3},{"id":4}]}`,
		// Bad shapes around and between the entities.
		`{"entities":[{"id":1},{"id":2}]`,
		`{"entities":[{"id":1},{"id":2}]}}`,
		`{"entities":[{"id":1},{"id":2}]]`,
		`{"entities":[{"id":1},{"id":2}x}`,
		`{"entities":[{"id":1},{"id":2},}`,
		`{"entities":[{"id":1},{"id":2}],}`,
		`{"entities":[{"id":1},,{"id":2}]}`,
		`{"entities":[{"id":1,"attrs":[1,2,3,4,5,6,7,8,9,10,11,12,13,14]} x {"id":2}]}`,
		`{"entities":[{"id":1,"attrs":[1,2,3,4,5,6,7,8,9,10,11,12,13,14]}{"id":2}]}`,
		`{"entities":[{"id":1},{"id":2},]}`,
		`{"entities":[[{"id":1},{"id":2}]]}`,
		`{"Entities":[{"id":1},{"id":2}]}`,
		// A NUL byte after an entity, where the scan must not stop.
		`{"entities":[{"id":1}`+"\x00"+`},{"id":2}]}`,
		`{"entities":[{"id":1}`+"\x00"+`,{"id":3},{"id":2}]}`,
	)
	s.add(true,
		`{"entities":[{"id":1,"cats":["`+strings.Repeat("a", 64)+`},{`+strings.Repeat("b", 64)+`"]},{"id":2}]}`,
		`{"entities":[{"id":1},{"id":2},{"id":3},{"id":4}]}`,
	)
	s.numbers(`{"entities":[{"id":%s,"vectors":[[1]]}]}`, true)
	s.numbers(`{"entities":[{"id":1,"vectors":[[%s]]}]}`, false)
	s.numbers(`{"entities":[{"id":1,"vectors":[[1]],"attrs":[%s]}]}`, true)
	s.truncations(sdk)
	return s
}

// searchResponseSeeds are reply bodies for the handler's encoder, which
// re-encodes each one json.Unmarshal takes. No scanner reads a reply (the
// SDK takes its hits as columns), so each maps to false.
func searchResponseSeeds(t testing.TB) wireSeeds {
	reply, err := encodeSearchResponse([]topk.Result{{ID: 42, Distance: 0}, {ID: -1, Distance: 1.5e-7}, {ID: 7, Distance: 12.75}})
	if err != nil {
		t.Fatal(err)
	}
	s := wireSeeds{}
	s.add(false,
		string(reply)+"\n",
		`{"results":[]}`+"\n",
		` { "results" : [ { "distance" : 1 , "id" : 2 } ] } `,
		`{}`,
		`{"Results":[]}`,
		`{"results":[{"ID":1,"distance":2}]}`,
		`{"results":null}`, `{"results":[null]}`, `{"results":[{"id":null}]}`,
		`{"results":[],"error":""}`,
		`{"results":[{"id":1,"distance":2,"rank":1}]}`,
		`{"results":[{"id":1,"id":2}]}`,
		`{"results":[]}{}`,
	)
	s.numbers(`{"results":[{"id":%s,"distance":1}]}`, true)
	s.numbers(`{"results":[{"id":1,"distance":%s}]}`, false)
	s.truncations(string(reply))
	for body := range s {
		s[body] = false
	}
	return s
}

// TestWireFastPathCoverage: on every seed, json.Unmarshal, Unmarshal and
// the scanner agree, and the scanner takes exactly the bodies it covers.
func TestWireFastPathCoverage(t *testing.T) {
	run := func(name string, seeds wireSeeds, check func(*testing.T, []byte) bool) {
		for body, want := range seeds {
			if got := check(t, []byte(body)); got != want {
				t.Errorf("%s %q: scanner took it = %v, want %v", name, body, got, want)
			}
		}
	}
	run("search request", searchRequestSeeds(t), searchRequestWire.check)
	run("insert request", insertRequestSeeds(t), insertRequestWire.check)
	run("search response", searchResponseSeeds(t), searchResponseWire.check)
}

// addSeeds gives f every seed body.
func addSeeds(f *testing.F, seeds wireSeeds) {
	for body := range seeds {
		f.Add([]byte(body))
	}
}

func FuzzSearchRequestWire(f *testing.F) {
	addSeeds(f, searchRequestSeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) { searchRequestWire.check(t, data) })
}

func FuzzInsertRequestWire(f *testing.F) {
	addSeeds(f, insertRequestSeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) { insertRequestWire.check(t, data) })
}

func FuzzSearchResponseWire(f *testing.F) {
	addSeeds(f, searchResponseSeeds(f))
	f.Fuzz(func(t *testing.T, data []byte) { searchResponseWire.check(t, data) })
}

// goldenFloats are the float32 values at encoding/json's format cutoffs
// and range ends.
var goldenFloats = []float32{
	0, float32(math.Copysign(0, -1)), 1e-7, 1e-6, 1e20, 1e21,
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 0.1, 1.5, -2.25e-9,
}

// TestWireEncoderGolden: the response encoder writes exactly
// encoding/json's bytes at the float format cutoffs, the int64 range ends
// and empty and null lists, and fails on NaN and ±Inf as it does.
func TestWireEncoderGolden(t *testing.T) {
	var rs []topk.Result
	var hits []ResultJSON
	for i, f := range goldenFloats {
		id := []int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4]
		rs = append(rs, topk.Result{ID: id, Distance: f})
		hits = append(hits, ResultJSON{ID: id, Distance: f})
	}
	for _, c := range []struct {
		rs   []topk.Result
		want SearchResponse
	}{
		{rs, SearchResponse{Results: hits}},
		{nil, SearchResponse{Results: []ResultJSON{}}},
		{[]topk.Result{}, SearchResponse{Results: []ResultJSON{}}},
	} {
		got, err := encodeSearchResponse(c.rs)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(c.want); !bytes.Equal(got, want) {
			t.Errorf("response\n got %s\nwant %s", got, want)
		}
	}

	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		_, wantErr := json.Marshal(SearchResponse{Results: []ResultJSON{{Distance: bad}}})
		if _, err := encodeSearchResponse([]topk.Result{{ID: 1, Distance: bad}}); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("response with %v: error %v, want %v", bad, err, wantErr)
		}
	}
}

// Layer bench cells: each body through the codec and through encoding/json.

func wireResults(n int) []topk.Result {
	r := rand.New(rand.NewSource(1))
	rs := make([]topk.Result, n)
	for i := range rs {
		rs[i] = topk.Result{ID: r.Int63n(32768), Distance: r.Float32() * 10}
	}
	return rs
}

func wireVector(r *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = r.Float32()*2 - 1
	}
	return v
}

var wireSink any

// wireStep is one bench step: an encode or a decode of one body.
type wireStep struct {
	name string
	run  func() (any, error)
}

// benchWire times each step, with body's length as its bytes.
func benchWire(b *testing.B, body []byte, steps ...wireStep) {
	for _, step := range steps {
		b.Run(step.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := step.run()
				if err != nil {
					b.Fatal(err)
				}
				wireSink = out
			}
		})
	}
}

// bytesOf adapts an encoder to a bench step.
func bytesOf(encode func() ([]byte, error)) func() (any, error) {
	return func() (any, error) { return encode() }
}

// BenchmarkWireSearchResponse100: the 100-hit reply of a k=100 search, as
// the handler's JSON (codec), through encoding/json (which copies into
// []ResultJSON first, as the handler had to) and as the SDK's columns.
func BenchmarkWireSearchResponse100(b *testing.B) {
	rs := wireResults(100)
	body, err := encodeSearchResponse(rs)
	cols, errCols := encodeHits(rs)
	if err != nil || errCols != nil {
		b.Fatal(err, errCols)
	}
	benchWire(b, body,
		wireStep{"encode/codec", bytesOf(func() ([]byte, error) { return encodeSearchResponse(rs) })},
		wireStep{"encode/json", bytesOf(func() ([]byte, error) {
			hits := make([]ResultJSON, len(rs))
			for i, r := range rs {
				hits[i] = ResultJSON(r)
			}
			return json.Marshal(SearchResponse{Results: hits})
		})},
		wireStep{"decode/json", func() (any, error) { var v SearchResponse; err := json.Unmarshal(body, &v); return v, err }})
	benchWire(b, cols,
		wireStep{"encode/columns", bytesOf(func() ([]byte, error) { return encodeHits(rs) })},
		wireStep{"decode/columns", func() (any, error) { return DecodeHits(cols) }})
}

// BenchmarkWireSearchRequest32: a 32-dim IVF search request, as JSON read
// by the scanner (codec) and by encoding/json, and as the SDK's columns.
func BenchmarkWireSearchRequest32(b *testing.B) {
	req := SearchRequest{Vector: wireVector(rand.New(rand.NewSource(1)), 32), K: 100, Nprobe: 4}
	body, err := json.Marshal(req)
	cols, errCols := EncodeSearch(req)
	if err != nil || errCols != nil {
		b.Fatal(err, errCols)
	}
	benchWire(b, body,
		wireStep{"encode/json", bytesOf(func() ([]byte, error) { return json.Marshal(req) })},
		wireStep{"decode/codec", func() (any, error) { var v SearchRequest; err := Unmarshal(body, &v); return v, err }},
		wireStep{"decode/json", func() (any, error) { var v SearchRequest; err := json.Unmarshal(body, &v); return v, err }})
	benchWire(b, cols,
		wireStep{"encode/columns", bytesOf(func() ([]byte, error) { return EncodeSearch(req) })},
		wireStep{"decode/columns", func() (any, error) { return decodeSearch(cols) }})
}

// BenchmarkWireInsert4096x128: one bulk-load insert body of 4,096 rows of
// 128 dims as JSON (about 6 MB), the body other clients send; the SDK
// sends these rows as columns (BenchmarkInsertWire).
func BenchmarkWireInsert4096x128(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	req := InsertRequest{Entities: make([]EntityJSON, 4096)}
	for i := range req.Entities {
		req.Entities[i] = EntityJSON{ID: int64(i), Vectors: [][]float32{wireVector(r, 128)}}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	benchWire(b, body,
		wireStep{"encode/json", bytesOf(func() ([]byte, error) { return json.Marshal(req) })},
		wireStep{"decode/codec", func() (any, error) { var v InsertRequest; err := Unmarshal(body, &v); return v, err }},
		wireStep{"decode/json", func() (any, error) { var v InsertRequest; err := json.Unmarshal(body, &v); return v, err }})
}
