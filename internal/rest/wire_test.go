package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"vectordb/internal/topk"
)

// wireNumbers are number literals on both sides of JSON's grammar and of
// float32's and int64's ranges: a float32 midpoint, a 20-digit mantissa,
// powers of ten just outside 10^±22, float32's overflow and underflow,
// zeros, and int64 at and one past either end.
var wireNumbers = []string{
	"0", "-0", "1e-7", "1E+2", "-1.5e-3", "3.4028235e38", "1e-50", "1.0",
	"9223372036854775807", "-9223372036854775808", "9223372036854775808",
	"1e39", "01", "+1", ".5", "1.", "1e", "-", "0x10", "NaN",
	"16777217", "12345678901234567890", "1e23", "1e-23", "3.4028236e38",
	"3.5e38", "1e-46", "-0.0e5", "0e400", "-9223372036854775809",
}

// wireSeeds are JSON bodies: those the SDK and other clients send, with
// any whitespace and key order, and those json.Unmarshal refuses or reads
// its own way — case-variant and escaped keys, null, unknown and repeated
// keys, number literals outside the grammar or the target type,
// truncations and trailing bytes.
type wireSeeds []string

// numbers adds body with each wire number in place of its %s.
func (s *wireSeeds) numbers(body string) {
	for _, n := range wireNumbers {
		*s = append(*s, strings.Replace(body, "%s", n, 1))
	}
}

// truncations adds every proper prefix of body.
func (s *wireSeeds) truncations(body string) {
	for n := 0; n < len(body); n++ {
		*s = append(*s, body[:n])
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
	s := wireSeeds{
		sdk,
		mustMarshal(t, SearchRequest{Field: "v", Vector: []float32{1, 2}, K: 5, Ef: 64, SearchL: 32,
			Filter: &FilterJSON{Attr: "price", Lo: -5, Hi: 1 << 40}}),
		mustMarshal(t, SearchRequest{K: 1}),
		" {\n\t\"k\" : 5 ,\r\n \"vector\" : [ 1 , 2.5E-3 ] , \"filter\" : { } } \n",
		`{"filter":{"hi":9,"lo":1,"attr":"price"},"search_l":2,"k":3,"vector":[0.5],"field":"v"}`,
		`{"vector":[],"k":0}`,
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
		// A bound far past any collection's rows.
		`{"vector":[0,0],"k":4611686018427387904}`,
	}
	s.numbers(`{"vector":[%s],"k":1}`)
	s.numbers(`{"vector":[1],"k":%s}`)
	s.numbers(`{"k":1,"filter":{"attr":"a","lo":%s,"hi":1}}`)
	s.truncations(sdk)
	return s
}

func insertRequestSeeds(t testing.TB) wireSeeds {
	sdk := mustMarshal(t, InsertRequest{Entities: []EntityJSON{
		{ID: 1, Vectors: [][]float32{{0.5, -2}}, Attrs: []int64{7}},
		{ID: -9, Vectors: [][]float32{{1e-7, 1e21}, {}}, Cats: []string{"red", "a b"}},
	}})
	s := wireSeeds{
		sdk,
		mustMarshal(t, InsertRequest{Entities: []EntityJSON{}}),
		"\t{ \"entities\" : [ { \"cats\" : [ \"x\" ] , \"attrs\" : [ 1 , -2 ] , \"vectors\" : [ [ 1 ] ] , \"id\" : 3 } ] }\r\n",
		`{"entities":[{"vectors":[[]],"attrs":[]},{}]}`,
		`{}`,
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
		// A NUL byte after an entity.
		`{"entities":[{"id":1}` + "\x00" + `},{"id":2}]}`,
		`{"entities":[{"id":1}` + "\x00" + `,{"id":3},{"id":2}]}`,
		`{"entities":[{"id":1,"cats":["` + strings.Repeat("a", 64) + `},{` + strings.Repeat("b", 64) + `"]},{"id":2}]}`,
		`{"entities":[{"id":1},{"id":2},{"id":3},{"id":4}]}`,
	}
	s.numbers(`{"entities":[{"id":%s,"vectors":[[1]]}]}`)
	s.numbers(`{"entities":[{"id":1,"vectors":[[%s]]}]}`)
	s.numbers(`{"entities":[{"id":1,"vectors":[[1]],"attrs":[%s]}]}`)
	s.truncations(sdk)
	return s
}

// fuzzHandlerJSON fuzzes the JSON bodies from seeds: any bytes, posted as
// a JSON search and as a JSON insert, answer 200, 400 or 404 — never a
// panic, never a 5xx. A search hit JSON cannot carry answers 500
// (TestUnencodableResultIs500), so the searched rows are zero vectors under
// IP, whose distance to any finite query, weighted or not, is 0; inserts go
// to a second collection.
func fuzzHandlerJSON(f *testing.F, seeds wireSeeds) {
	h := NewServer(nil)
	schema := CreateCollectionRequest{VectorFields: []VectorFieldJSON{{Name: "v", Dim: 2, Metric: "IP"}},
		AttrFields: []string{"price"}, CatFields: []string{"c", "d"}}
	rows := []EntityJSON{
		{ID: 1, Vectors: [][]float32{{0, 0}}, Attrs: []int64{7}, Cats: []string{"red", "x"}},
		{ID: 2, Vectors: [][]float32{{0, 0}}, Attrs: []int64{-5}, Cats: []string{"a b", ""}},
	}
	for _, name := range []string{"s", "i"} {
		schema.Name = name
		if code := post(h, "/collections", jsonType, []byte(mustMarshal(f, schema))); code != http.StatusCreated {
			f.Fatalf("create %s: HTTP %d", name, code)
		}
	}
	if code := post(h, "/collections/s/entities", ColumnsType, mustColumns(f, rows)); code != http.StatusOK {
		f.Fatalf("insert: HTTP %d", code)
	}
	if code := post(h, "/collections/s/flush", jsonType, nil); code != http.StatusOK {
		f.Fatalf("flush: HTTP %d", code)
	}
	for _, body := range seeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, path := range []string{"/collections/s/search", "/collections/i/entities"} {
			switch code := post(h, path, jsonType, data); code {
			case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
			default:
				t.Fatalf("%s %q: HTTP %d", path, data, code)
			}
		}
	})
}

// FuzzSearchRequestWire: fuzzHandlerJSON from the search bodies.
func FuzzSearchRequestWire(f *testing.F) { fuzzHandlerJSON(f, searchRequestSeeds(f)) }

// FuzzInsertRequestWire: fuzzHandlerJSON from the insert bodies.
func FuzzInsertRequestWire(f *testing.F) { fuzzHandlerJSON(f, insertRequestSeeds(f)) }

// searchResponseSeeds are JSON search replies: the handler's own, and
// bodies json.Unmarshal refuses or reads its own way.
func searchResponseSeeds(t testing.TB) wireSeeds {
	reply := mustMarshal(t, searchResponse([]topk.Result{{ID: 42, Distance: 0}, {ID: -1, Distance: 1.5e-7}, {ID: 7, Distance: 12.75}}))
	s := wireSeeds{
		reply + "\n",
		`{"results":[]}` + "\n",
		` { "results" : [ { "distance" : 1 , "id" : 2 } ] } `,
		`{}`,
		`{"Results":[]}`,
		`{"results":[{"ID":1,"distance":2}]}`,
		`{"results":null}`, `{"results":[null]}`, `{"results":[{"id":null}]}`,
		`{"results":[],"error":""}`,
		`{"results":[{"id":1,"distance":2,"rank":1}]}`,
		`{"results":[{"id":1,"id":2}]}`,
		`{"results":[]}{}`,
	}
	s.numbers(`{"results":[{"id":%s,"distance":1}]}`)
	s.numbers(`{"results":[{"id":1,"distance":%s}]}`)
	s.truncations(reply)
	return s
}

// replyJSON is the handler's JSON answer to a search that found hits.
func replyJSON(hits []topk.Result) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, searchResponse(hits))
	return w
}

// replyMismatch reports how the JSON reply to hits departs from 200 with a
// list (never null) that json.Unmarshal reads back as hits, bit for bit —
// or, when a distance is NaN or ±Inf, from 500; "" when it does not.
func replyMismatch(hits []topk.Result) string {
	w := replyJSON(hits)
	for _, h := range hits {
		if math.IsNaN(float64(h.Distance)) || math.IsInf(float64(h.Distance), 0) {
			if w.Code != http.StatusInternalServerError {
				return fmt.Sprintf("distance %v: HTTP %d, want 500", h.Distance, w.Code)
			}
			return ""
		}
	}
	body := w.Body.Bytes()
	var got SearchResponse
	if w.Code != http.StatusOK || w.Header().Get("Content-Type") != jsonType || !bytes.HasPrefix(body, []byte(`{"results":[`)) {
		return fmt.Sprintf("%d hits: HTTP %d, %s %q", len(hits), w.Code, w.Header().Get("Content-Type"), body)
	}
	if err := json.Unmarshal(body, &got); err != nil || len(got.Results) != len(hits) {
		return fmt.Sprintf("%d hits: %q reads back as %d hits, %v", len(hits), body, len(got.Results), err)
	}
	for i, h := range hits {
		if g := got.Results[i]; g.ID != h.ID || math.Float32bits(g.Distance) != math.Float32bits(h.Distance) {
			return fmt.Sprintf("hit %d: sent %d at %#x, read back %d at %#x from %q",
				i, h.ID, math.Float32bits(h.Distance), g.ID, math.Float32bits(g.Distance), body)
		}
	}
	return ""
}

// FuzzSearchResponseWire: whatever hits a reply json.Unmarshal takes
// carries, the handler's JSON reply to them reads back as the same hits.
func FuzzSearchResponseWire(f *testing.F) {
	for _, body := range searchResponseSeeds(f) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r SearchResponse
		if json.Unmarshal(data, &r) != nil {
			return
		}
		hits := make([]topk.Result, len(r.Results))
		for i, x := range r.Results {
			hits[i] = topk.Result(x)
		}
		if msg := replyMismatch(hits); msg != "" {
			t.Fatal(msg)
		}
	})
}

// goldenFloats are the float32 values at encoding/json's format cutoffs
// and range ends.
var goldenFloats = []float32{
	0, float32(math.Copysign(0, -1)), 1e-7, 1e-6, 1e20, 1e21,
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32, 0.1, 1.5, -2.25e-9,
}

// TestWireEncoderGolden: the JSON reply to a search is exactly these bytes
// at the float format cutoffs and the float32 and int64 range ends, and
// {"results":[]} for no hits; NaN and ±Inf answer 500 with json.Marshal's
// error.
func TestWireEncoderGolden(t *testing.T) {
	var rs []topk.Result
	for i, f := range goldenFloats {
		rs = append(rs, topk.Result{ID: []int64{math.MinInt64, math.MaxInt64, 0, -1}[i%4], Distance: f})
	}
	for _, c := range []struct {
		rs   []topk.Result
		want string
	}{
		{rs, `{"results":[{"id":-9223372036854775808,"distance":0},{"id":9223372036854775807,"distance":-0},` +
			`{"id":0,"distance":1e-7},{"id":-1,"distance":0.000001},{"id":-9223372036854775808,"distance":100000000000000000000},` +
			`{"id":9223372036854775807,"distance":1e+21},{"id":0,"distance":3.4028235e+38},{"id":-1,"distance":-3.4028235e+38},` +
			`{"id":-9223372036854775808,"distance":1e-45},{"id":9223372036854775807,"distance":0.1},{"id":0,"distance":1.5},` +
			`{"id":-1,"distance":-2.25e-9}]}`},
		{nil, `{"results":[]}`},
		{[]topk.Result{}, `{"results":[]}`},
	} {
		w := replyJSON(c.rs)
		if got := w.Body.String(); w.Code != http.StatusOK || got != c.want+"\n" {
			t.Errorf("reply: HTTP %d\n got %s\nwant %s", w.Code, got, c.want)
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		_, wantErr := json.Marshal(SearchResponse{Results: []ResultJSON{{Distance: bad}}})
		w := replyJSON([]topk.Result{{ID: 1, Distance: bad}})
		var e ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &e); w.Code != http.StatusInternalServerError || err != nil || e.Error != wantErr.Error() {
			t.Errorf("reply with %v: HTTP %d, error %q (%v), want 500 with %q", bad, w.Code, e.Error, err, wantErr)
		}
	}
}

// replySweep sends the finite float32s among at(0) … at(n-1) as distances,
// 4,096 hits to a reply, split across GOMAXPROCS goroutines, and reports
// the first replies that do not read back bit for bit.
func replySweep(t *testing.T, n uint64, at func(uint64) uint32) {
	t.Helper()
	workers := uint64(runtime.GOMAXPROCS(0))
	var (
		mu  sync.Mutex
		bad []string
		wg  sync.WaitGroup
	)
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func(lo, hi uint64) {
			defer wg.Done()
			hits := make([]topk.Result, 0, 4096)
			for i := lo; i < hi; i++ {
				if f := math.Float32frombits(at(i)); !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) {
					hits = append(hits, topk.Result{ID: int64(i), Distance: f})
				}
				if len(hits) == cap(hits) || i == hi-1 && len(hits) > 0 {
					if msg := replyMismatch(hits); msg != "" {
						mu.Lock()
						bad = append(bad, msg)
						mu.Unlock()
						return
					}
					hits = hits[:0]
				}
			}
		}(n*w/workers, n*(w+1)/workers)
	}
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("mismatches (the first of each goroutine that had one):\n%s", strings.Join(bad, "\n"))
	}
}

// TestFloat32PrintSweep: the JSON reply carries distances back bit for
// bit: the first and last 4,096 significands of every exponent, the
// subnormals' included, where the rounding interval is widest relative to
// the value; and 1 M random bit patterns of either sign.
func TestFloat32PrintSweep(t *testing.T) {
	replySweep(t, 255<<13, func(i uint64) uint32 {
		e, m := uint32(i>>13), uint32(i&(1<<12-1))
		if i&(1<<12) != 0 {
			m = 1<<23 - 1 - m
		}
		return e<<23 | m
	})
	replySweep(t, 1<<20, func(i uint64) uint32 {
		i = (i + 1) * 0x9e3779b97f4a7c15 // a bijective mix of i
		return uint32(i>>32 ^ i)
	})
}

// FuzzFloat32Print: any bit pattern as a hit's distance reads back from
// the JSON reply with its bits, or answers 500 when it is NaN or ±Inf.
func FuzzFloat32Print(f *testing.F) {
	for _, v := range goldenFloats {
		f.Add(math.Float32bits(v))
	}
	for _, x := range []uint32{1, 0x15, 0x1d, 0x47, 1<<23 - 1, 0x4b800001} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x uint32) {
		if msg := replyMismatch([]topk.Result{{ID: int64(x), Distance: math.Float32frombits(x)}}); msg != "" {
			t.Fatal(msg)
		}
	})
}

// jsonNumber is JSON's number grammar between JSON whitespace.
var jsonNumber = regexp.MustCompile(`^[ \t\n\r]*-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?[ \t\n\r]*$`)

// checkNumberScan fails t unless a JSON search body takes lit as its
// vector's one float32 and as its int k exactly when JSON's grammar and
// strconv do, with strconv's bits. A lit that changes the body around it —
// a structural character or a quote, only whitespace, or null, which
// leaves the target as it was — is not a number and is skipped.
func checkNumberScan(t *testing.T, lit string) {
	t.Helper()
	trimmed := strings.Trim(lit, " \t\n\r")
	if strings.ContainsAny(lit, `,:[]{}"`) || trimmed == "" || trimmed == "null" {
		return
	}
	grammar := jsonNumber.MatchString(lit)
	q, err := decodeQuery([]byte(`{"vector":[`+lit+`],"k":1}`), jsonType)
	wf, perr := strconv.ParseFloat(trimmed, 32)
	if ok, want, wantOK := err == nil, float32(wf), grammar && perr == nil; ok != wantOK || ok && (len(q.Vector) != 1 || math.Float32bits(q.Vector[0]) != math.Float32bits(want)) {
		t.Fatalf("float32 %q: got %v (error %v), strconv %v (ok %v)", lit, q.Vector, err, want, wantOK)
	}
	q, err = decodeQuery([]byte(`{"vector":[1],"k":`+lit+`}`), jsonType)
	wi, perr := strconv.ParseInt(trimmed, 10, 64)
	if ok, wantOK := err == nil, grammar && perr == nil; ok != wantOK || ok && int64(q.K) != wi {
		t.Fatalf("k %q: got %d (error %v), strconv %d (ok %v)", lit, q.K, err, wi, wantOK)
	}
}

// TestNumberScan: on the wire numbers and on random literals — float32s in
// 'e' form at every precision and in 'f' form, float32 midpoints written as
// float64s, mantissas of up to 20 digits under exponents around the exact
// range, and integers of every width — a JSON search body's float32 and k
// are strconv's accept, reject and bits.
func TestNumberScan(t *testing.T) {
	for _, lit := range wireNumbers {
		checkNumberScan(t, lit)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<16; i++ {
		f := math.Float32frombits(r.Uint32())
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		mid := (float64(f) + float64(math.Nextafter32(f, float32(math.Inf(1))))) / 2
		for _, lit := range []string{
			strconv.FormatFloat(float64(f), 'e', r.Intn(12), 32),
			strconv.FormatFloat(float64(f), 'f', -1, 32),
			strconv.FormatFloat(mid, 'g', -1, 64),
			strconv.FormatUint(r.Uint64()>>r.Intn(64), 10) + "e" + strconv.Itoa(r.Intn(60)-30),
			strconv.FormatInt(r.Int63()>>r.Intn(63)-r.Int63(), 10),
		} {
			checkNumberScan(t, lit)
		}
	}
}

// FuzzNumberScan: on any literal, a JSON search body's float32 and k are
// strconv's accept, reject and bits.
func FuzzNumberScan(f *testing.F) {
	for _, lit := range wireNumbers {
		f.Add(lit)
	}
	f.Fuzz(checkNumberScan)
}

// Layer bench cells: each body as JSON through encoding/json, the path
// every client but the SDK takes, and as the SDK's columns.

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
// the handler's JSON (copied into []ResultJSON and through json.Marshal)
// and as the SDK's columns.
func BenchmarkWireSearchResponse100(b *testing.B) {
	rs := wireResults(100)
	encodeJSON := func() ([]byte, error) {
		hits := make([]ResultJSON, len(rs))
		for i, r := range rs {
			hits[i] = ResultJSON(r)
		}
		return json.Marshal(SearchResponse{Results: hits})
	}
	body, err := encodeJSON()
	cols, errCols := encodeHits(rs)
	if err != nil || errCols != nil {
		b.Fatal(err, errCols)
	}
	benchWire(b, body,
		wireStep{"encode/json", bytesOf(encodeJSON)},
		wireStep{"decode/json", func() (any, error) { var v SearchResponse; err := json.Unmarshal(body, &v); return v, err }})
	benchWire(b, cols,
		wireStep{"encode/columns", bytesOf(func() ([]byte, error) { return encodeHits(rs) })},
		wireStep{"decode/columns", func() (any, error) { return DecodeHits(cols) }})
}

// BenchmarkWireSearchRequest32: a 32-dim IVF search request, as JSON and
// as the SDK's columns.
func BenchmarkWireSearchRequest32(b *testing.B) {
	req := SearchRequest{Vector: wireVector(rand.New(rand.NewSource(1)), 32), K: 100, Nprobe: 4}
	body, err := json.Marshal(req)
	cols, errCols := EncodeSearch(req)
	if err != nil || errCols != nil {
		b.Fatal(err, errCols)
	}
	benchWire(b, body,
		wireStep{"encode/json", bytesOf(func() ([]byte, error) { return json.Marshal(req) })},
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
		wireStep{"decode/json", func() (any, error) { var v InsertRequest; err := json.Unmarshal(body, &v); return v, err }})
}
