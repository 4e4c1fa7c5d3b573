package rest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vectordb/internal/core"
	"vectordb/internal/topk"
)

// searchSchema is the collection the search tables run against: two vector
// fields, a numeric attribute and a categorical one.
var searchSchema = CreateCollectionRequest{
	Name:         "s",
	VectorFields: []VectorFieldJSON{{Name: "v", Dim: 3}, {Name: "w", Dim: 2}},
	AttrFields:   []string{"price"},
	CatFields:    []string{"brand"},
}

// searchServer serves searchSchema holding 64 rows: price = i, brand one of
// three.
func searchServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer(nil))
	t.Cleanup(srv.Close)
	postWire(t, srv.URL+"/collections", searchSchema)
	es := make([]EntityJSON, 64)
	for i := range es {
		x := float32(i)
		es[i] = EntityJSON{ID: int64(i), Vectors: [][]float32{{x / 7, -x / 3, 1}, {x / 5, 2}},
			Attrs: []int64{int64(i)}, Cats: []string{[]string{"acme", "globex", "initech"}[i%3]}}
	}
	postInsert(t, srv.URL+"/collections/s/entities", es)
	postWire(t, srv.URL+"/collections/s/flush", struct{}{})
	return srv
}

// searchCases are the search shapes both bodies carry, then requests the
// server must refuse.
var searchCases = []struct {
	name string
	req  SearchRequest
	ok   bool
}{
	{"plain", SearchRequest{Vector: []float32{1, -2, 1}, K: 5}, true},
	{"named field", SearchRequest{Field: "w", Vector: []float32{3, 2}, K: 4, Nprobe: 2}, true},
	{"range", SearchRequest{Vector: []float32{1, -2, 1}, K: 10, Filter: &FilterJSON{Attr: "price", Lo: 10, Hi: 20}}, true},
	{"IN", SearchRequest{Vector: []float32{1, -2, 1}, K: 10, CatFilter: &CatFilterJSON{Attr: "brand", Values: []string{"globex", "initech"}}}, true},
	{"range and IN", SearchRequest{Field: "v", Vector: []float32{0, 0, 1}, K: 64,
		Filter: &FilterJSON{Attr: "price", Lo: 5, Hi: 40}, CatFilter: &CatFilterJSON{Attr: "brand", Values: []string{"acme"}}}, true},
	{"weighted multi-vector", SearchRequest{Vectors: [][]float32{{1, -2, 1}, {3, 2}}, Weights: []float32{0.75, 0.25}, K: 6}, true},
	{"multi-vector, one vector", SearchRequest{Vectors: [][]float32{{1, -2, 1}}, K: 6}, false},
	{"unknown field", SearchRequest{Field: "nope", Vector: []float32{1, 2, 3}, K: 1}, false},
	{"wrong dim", SearchRequest{Vector: []float32{1, 2}, K: 1}, false},
	{"k = 0", SearchRequest{Vector: []float32{1, 2, 3}, K: 0}, false},
	{"empty vector", SearchRequest{Vector: []float32{}, K: 1}, false},
	{"unknown attr", SearchRequest{Vector: []float32{1, 2, 3}, K: 1, Filter: &FilterJSON{Attr: "nope", Lo: 1, Hi: 2}}, false},
	{"unknown cat", SearchRequest{Vector: []float32{1, 2, 3}, K: 1, CatFilter: &CatFilterJSON{Attr: "nope", Values: []string{"x"}}}, false},
}

// searchReply is one answer to a search.
type searchReply struct {
	code        int
	contentType string
	body        []byte
}

func postSearch(t *testing.T, url, contentType, accept string, body []byte) searchReply {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/collections/s/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return searchReply{resp.StatusCode, resp.Header.Get("Content-Type"), out}
}

// hitsOrError is a reply's hits, decoded by its Content-Type, or its JSON
// error text.
func (r searchReply) hitsOrError(t *testing.T) ([]ResultJSON, string) {
	t.Helper()
	switch {
	case r.code != http.StatusOK:
		var e ErrorResponse
		if err := json.Unmarshal(r.body, &e); err != nil || r.contentType != jsonType {
			t.Fatalf("HTTP %d error reply %q under %s: %v", r.code, r.body, r.contentType, err)
		}
		return nil, e.Error
	case r.contentType == ColumnsType:
		hits, err := DecodeHits(r.body)
		if err != nil {
			t.Fatal(err)
		}
		return hits, ""
	}
	var resp SearchResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Results, ""
}

// TestSearchColumnsMatchJSON: each search, sent as JSON and as columns,
// gets the same hits, or the same status and error text.
func TestSearchColumnsMatchJSON(t *testing.T) {
	srv := searchServer(t)
	for _, c := range searchCases {
		jsonBody, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		colsBody, err := EncodeSearch(c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		asJSON := postSearch(t, srv.URL, jsonType, "", jsonBody)
		asCols := postSearch(t, srv.URL, ColumnsType, ColumnsType, colsBody)
		if (asJSON.code == http.StatusOK) != c.ok || asCols.code != asJSON.code {
			t.Errorf("%s: HTTP %d as JSON, %d as columns; want 200 = %v", c.name, asJSON.code, asCols.code, c.ok)
			continue
		}
		if c.ok && asCols.contentType != ColumnsType {
			t.Errorf("%s: columnar request answered under %s", c.name, asCols.contentType)
		}
		hitsJSON, errJSON := asJSON.hitsOrError(t)
		hitsCols, errCols := asCols.hitsOrError(t)
		if !slices.Equal(hitsJSON, hitsCols) || errJSON != errCols {
			t.Errorf("%s: JSON %v %q, columns %v %q", c.name, hitsJSON, errJSON, hitsCols, errCols)
		}
		if c.ok && len(hitsJSON) == 0 {
			t.Errorf("%s: no hits", c.name)
		}
	}
}

// TestSearchAccept: the reply is columns only when Accept names
// ColumnsType, whichever body the request sent; otherwise it is the JSON
// reply, byte for byte.
func TestSearchAccept(t *testing.T) {
	srv := searchServer(t)
	req := searchCases[2].req
	jsonBody, _ := json.Marshal(req)
	colsBody, err := EncodeSearch(req)
	if err != nil {
		t.Fatal(err)
	}
	want := postSearch(t, srv.URL, jsonType, "", jsonBody)
	if want.code != http.StatusOK || want.contentType != jsonType {
		t.Fatalf("JSON search: HTTP %d under %s", want.code, want.contentType)
	}
	for _, accept := range []string{"", jsonType, "*/*", "text/html, application/*;q=0.8"} {
		for _, sent := range []struct {
			contentType string
			body        []byte
		}{{jsonType, jsonBody}, {ColumnsType, colsBody}} {
			got := postSearch(t, srv.URL, sent.contentType, accept, sent.body)
			if got.code != want.code || got.contentType != jsonType || !bytes.Equal(got.body, want.body) {
				t.Errorf("%s body, Accept %q: HTTP %d %s %q; want the JSON reply %q", sent.contentType, accept, got.code, got.contentType, got.body, want.body)
			}
		}
	}
	hits, _ := want.hitsOrError(t)
	for _, accept := range []string{ColumnsType, "text/html, Application/X-Vectordb-Columns ; q=0.9"} {
		for _, sent := range []struct {
			contentType string
			body        []byte
		}{{jsonType, jsonBody}, {ColumnsType, colsBody}} {
			got := postSearch(t, srv.URL, sent.contentType, accept, sent.body)
			if got.contentType != ColumnsType {
				t.Errorf("%s body, Accept %q: reply under %s", sent.contentType, accept, got.contentType)
				continue
			}
			if cols, _ := got.hitsOrError(t); !slices.Equal(cols, hits) {
				t.Errorf("%s body, Accept %q: hits %v, want %v", sent.contentType, accept, cols, hits)
			}
		}
	}
}

// TestSearchBothFiltersAreANDed: a range and an IN term given together
// both apply (ids 5–9 of ten rows with price = id, every brand "acme"),
// and a JSON body with vectors beside a vector or a filter is refused.
func TestSearchBothFiltersAreANDed(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil))
	t.Cleanup(srv.Close)
	postWire(t, srv.URL+"/collections", CreateCollectionRequest{Name: "s", VectorFields: []VectorFieldJSON{{Name: "v", Dim: 2}},
		AttrFields: []string{"price"}, CatFields: []string{"brand"}})
	es := make([]EntityJSON, 10)
	for i := range es {
		es[i] = EntityJSON{ID: int64(i), Vectors: [][]float32{{float32(i), 0}}, Attrs: []int64{int64(i)}, Cats: []string{"acme"}}
	}
	postInsert(t, srv.URL+"/collections/s/entities", es)
	postWire(t, srv.URL+"/collections/s/flush", struct{}{})
	req := SearchRequest{Vector: []float32{0, 0}, K: 10,
		Filter: &FilterJSON{Attr: "price", Lo: 5, Hi: 9}, CatFilter: &CatFilterJSON{Attr: "brand", Values: []string{"acme"}}}
	jsonBody, _ := json.Marshal(req)
	colsBody, err := EncodeSearch(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []searchReply{postSearch(t, srv.URL, jsonType, "", jsonBody), postSearch(t, srv.URL, ColumnsType, ColumnsType, colsBody)} {
		hits, msg := r.hitsOrError(t)
		var ids []int64
		for _, h := range hits {
			ids = append(ids, h.ID)
		}
		if !slices.Equal(ids, []int64{5, 6, 7, 8, 9}) {
			t.Errorf("%s reply: ids %v %q, want 5–9", r.contentType, ids, msg)
		}
	}
	for body, code := range map[string]int{
		`{"vectors":[[0,0]],"k":1}`:                                                 http.StatusOK,
		`{"vectors":[[0,0]],"vector":[0,0],"k":1}`:                                  http.StatusBadRequest,
		`{"vectors":[[0,0]],"k":1,"filter":{"attr":"price","lo":0,"hi":9}}`:         http.StatusBadRequest,
		`{"vectors":[[0,0]],"k":1,"cat_filter":{"attr":"brand","values":["acme"]}}`: http.StatusBadRequest,
		`{"vector":[0,0],"weights":[1],"k":1}`:                                      http.StatusBadRequest,
		`{"vector":[0,0],"k":1,"cat_filter":{"attr":"brand","values":["acme"]}}`:    http.StatusOK,
	} {
		if got := postSearch(t, srv.URL, jsonType, "", []byte(body)); got.code != code {
			t.Errorf("%s: HTTP %d %s, want %d", body, got.code, got.body, code)
		}
	}
}

// searchColumnsSeeds are columnar search bodies the decoder takes: the
// table's shapes and the edges of what the body carries.
func searchColumnsSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	add := func(q query) {
		b, err := encodeSearch(&q)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	for _, c := range searchCases {
		q := c.req.query()
		if len(q.Vector) == 0 {
			q.Vector = nil
		}
		add(q)
	}
	opts := core.SearchOptions{Field: "é\x00", K: math.MinInt64, Nprobe: math.MaxInt64, Ef: -1, SearchL: 1}
	negZero := float32(math.Copysign(0, -1))
	add(query{Request: core.Request{SearchOptions: opts}})
	add(query{Request: core.Request{Vector: []float32{}, SearchOptions: opts}})
	add(query{Request: core.Request{Fields: [][]float32{}, Weights: []float32{negZero}}})
	add(query{Request: core.Request{Fields: [][]float32{{}, {math.SmallestNonzeroFloat32}}},
		rng: &core.RangeFilter{Attr: "", Lo: math.MinInt64, Hi: math.MaxInt64}, in: &core.InFilter{Attr: "c", Values: []string{}}})
	add(query{Request: core.Request{Vector: []float32{math.MaxFloat32, -math.MaxFloat32}, Weights: []float32{1, 2, 3}},
		in: &core.InFilter{Attr: "brand", Values: []string{"", "a b", "€"}}})
	// A binary fingerprint's all-ones and quiet-NaN words.
	add(query{Request: core.Request{Vector: []float32{math.Float32frombits(0xFFFFFFFF), math.Float32frombits(0x7FC00000)}, SearchOptions: core.SearchOptions{K: 1}}})
	return seeds
}

// queryWords is every float q carries, in body order.
func queryWords(q query) []float32 {
	return slices.Concat(slices.Concat(q.Fields...), q.Vector, q.Weights)
}

// searchColumnsNonFinite are columnar search bodies the decoder takes and
// the server's schema refuses: two searches of searchSchema, a weighted
// multi-vector one and a plain one, with each of their floats in turn a
// NaN, +Inf and −Inf.
func searchColumnsNonFinite(t testing.TB) map[string][]byte {
	ms := map[string][]byte{}
	for _, q := range []query{
		{Request: core.Request{Fields: [][]float32{{1.25, 2.5, 0.5}, {3.75, 1}}, Weights: []float32{4.5, 5.25}, SearchOptions: core.SearchOptions{K: 3}}},
		{Request: core.Request{Vector: []float32{6.5, 7.25, 8.75}, SearchOptions: core.SearchOptions{K: 3}}},
	} {
		good, err := encodeSearch(&q)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range queryWords(q) {
			at := bytes.Index(good, le.AppendUint32(nil, math.Float32bits(f)))
			for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
				body := slices.Clone(good)
				le.PutUint32(body[at:], math.Float32bits(bad))
				ms[fmt.Sprintf("%v in place of %v", bad, f)] = body
			}
		}
	}
	return ms
}

// searchColumnsMutants are columnar search bodies the decoder must refuse.
func searchColumnsMutants(t testing.TB) map[string][]byte {
	full, err := encodeSearch(&query{
		Request: core.Request{Fields: [][]float32{{1.25, 2.5}, {3.75}}, Weights: []float32{4.5, 5.25}, SearchOptions: core.SearchOptions{Field: "f", K: 3}},
		rng:     &core.RangeFilter{Attr: "price", Lo: 1, Hi: 2},
		in:      &core.InFilter{Attr: "brand", Values: []string{"acme", "x"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// header is a body's magic, k, nprobe, ef, search_l and flags.
	header := func(flags uint32) []byte {
		b := []byte(searchMagic)
		for range 4 {
			b = le.AppendUint64(b, 1)
		}
		return le.AppendUint32(b, flags)
	}
	u32s := func(b []byte, vs ...uint32) []byte {
		for _, v := range vs {
			b = le.AppendUint32(b, v)
		}
		return b
	}
	edit := func(at int, bs ...byte) []byte {
		b := slices.Clone(full)
		copy(b[at:], bs)
		return b
	}
	plain := u32s(header(0), 0, 1, 2, 0, 0, 0, 0) // field "", one 2-dim vector of zeros, no weights
	ms := map[string][]byte{
		"bad magic":                  edit(0, 'V', 'D', 'B', 'C'),
		"version 2":                  edit(4, 2),
		"unknown flag":               u32s(header(8), 0, 0, 0),
		"two vectors without flag 1": u32s(header(0), 0, 2, 1, 0, 1, 0, 0),
		"one trailing byte":          append(slices.Clone(full), 0),
		"plain, one trailing byte":   append(slices.Clone(plain), 0),
		"2^32-1 vectors":             u32s(header(perField), 0, math.MaxUint32),
		"2^32-1 dims":                u32s(header(0), 0, 1, math.MaxUint32),
		"2^32-1 weights":             u32s(header(0), 0, 0, math.MaxUint32),
		"2^32-1 IN values":           u32s(header(inTerm), 0, 0, 0, 0, math.MaxUint32),
		"field overruns body":        u32s(header(0), math.MaxUint32),
		"invalid UTF-8 field":        append(u32s(header(0), 1), 0xff, 0, 0, 0, 0, 0, 0, 0, 0),
		"invalid UTF-8 attr":         append(u32s(header(rangeTerm), 0, 0, 0, 1), append([]byte{0xc3}, make([]byte, 16)...)...),
		"invalid UTF-8 value":        append(u32s(header(inTerm), 0, 0, 0, 0, 1, 1), 0xed),
	}
	for n := 0; n < len(full); n++ {
		ms[fmt.Sprintf("truncated at %d", n)] = full[:n]
	}
	return ms
}

// TestSearchColumnsRejected: the decoder refuses every mutant and the
// handler answers it 400. The decoder takes a NaN or ±Inf query word or
// weight, which the body carries as bits, and the handler answers that
// 400 from the schema.
func TestSearchColumnsRejected(t *testing.T) {
	h := NewServer(nil)
	b, _ := json.Marshal(searchSchema)
	post(h, "/collections", jsonType, b)
	for name, body := range searchColumnsMutants(t) {
		if _, err := decodeSearch(body); err == nil {
			t.Errorf("%s: decoded", name)
		}
		if code := post(h, "/collections/s/search", ColumnsType, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	for name, body := range searchColumnsNonFinite(t) {
		if _, err := decodeSearch(body); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if w := postReply(h, "/collections/s/search", ColumnsType, body); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "NaN or ±Inf") {
			t.Errorf("%s: %d %s, want 400 naming the NaN or ±Inf", name, w.Code, w.Body)
		}
	}
	for _, body := range searchColumnsSeeds(t) {
		if _, err := decodeSearch(body); err != nil {
			t.Errorf("seed %x: %v", body, err)
		}
	}
}

// TestSearchColumnsHeaderAllocates: a search header claiming 2³²−1
// vectors, dims, weights or IN values, and a reply header claiming 2³²−1
// hits, are refused having allocated less than 1 MiB.
func TestSearchColumnsHeaderAllocates(t *testing.T) {
	h := NewServer(nil)
	b, _ := json.Marshal(searchSchema)
	post(h, "/collections", jsonType, b)
	ms := searchColumnsMutants(t)
	for _, name := range []string{"2^32-1 vectors", "2^32-1 dims", "2^32-1 weights", "2^32-1 IN values"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		code := post(h, "/collections/s/search", ColumnsType, ms[name])
		runtime.ReadMemStats(&after)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", name, got)
		}
	}
	reply := le.AppendUint32([]byte(hitsMagic), math.MaxUint32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeHits(reply)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a reply of 2^32-1 hits and no bytes decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reply header: allocated %d bytes", got)
	}
}

// TestSearchColumnsNonFinite: a NaN or ±Inf query vector, per-field
// vector or weight encodes as bits — the body decodes to the request's
// words — and the server's schema answers it 400; a NaN or ±Inf distance
// fails the columnar reply, and a request with both a vector and per-field
// vectors fails to encode.
func TestSearchColumnsNonFinite(t *testing.T) {
	srv := searchServer(t)
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for _, req := range []SearchRequest{
			{Vector: []float32{1, bad, 0}, K: 1},
			{Vectors: [][]float32{{1, 0, 0}, {bad, 0}}, K: 1},
			{Vectors: [][]float32{{1, 0, 0}, {2, 0}}, Weights: []float32{bad, 1}, K: 1},
		} {
			body, err := EncodeSearch(req)
			if err != nil {
				t.Errorf("%+v: %v", req, err)
				continue
			}
			if q, err := decodeSearch(body); err != nil || !sameFloats(queryWords(q), queryWords(req.query())) {
				t.Errorf("%+v: decoded %+v, %v", req, q, err)
			}
			r := postSearch(t, srv.URL, ColumnsType, ColumnsType, body)
			if _, msg := r.hitsOrError(t); r.code != http.StatusBadRequest || !strings.Contains(msg, "NaN or ±Inf") {
				t.Errorf("%+v: HTTP %d %q, want 400 naming the NaN or ±Inf", req, r.code, msg)
			}
		}
		if _, err := encodeHits([]topk.Result{{ID: 1, Distance: 1}, {ID: 2, Distance: bad}}); err == nil {
			t.Errorf("a %v distance encoded", bad)
		}
	}
	if _, err := EncodeSearch(SearchRequest{Vector: []float32{1}, Vectors: [][]float32{{1}}, K: 1}); err == nil {
		t.Error("a request with both a vector and per-field vectors encoded")
	}
}

// FuzzSearchColumns: the search decoder never panics, and every body it
// takes is exactly what the encoder writes for what it decoded.
func FuzzSearchColumns(f *testing.F) {
	for _, body := range searchColumnsSeeds(f) {
		f.Add(body)
	}
	for _, body := range searchColumnsMutants(f) {
		f.Add(body)
	}
	for _, body := range searchColumnsNonFinite(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := decodeSearch(data)
		if err != nil {
			return
		}
		again, err := encodeSearch(&q)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %+v, which encodes as %x (%v)", data, q, again, err)
		}
	})
}

// FuzzHitsColumns: the reply decoder never panics, and every reply it
// takes is exactly what the encoder writes for its hits.
func FuzzHitsColumns(f *testing.F) {
	for _, n := range []int{0, 1, 100} {
		b, err := encodeHits(wireResults(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(append(b, 0))
	}
	edge, err := encodeHits([]topk.Result{{ID: math.MinInt64, Distance: float32(math.Copysign(0, -1))}, {ID: math.MaxInt64, Distance: math.MaxFloat32}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(edge)
	f.Add(le.AppendUint32([]byte(hitsMagic), math.MaxUint32))
	f.Add(le.AppendUint32(le.AppendUint64(le.AppendUint32([]byte(hitsMagic), 1), 1), math.Float32bits(float32(math.NaN()))))
	f.Fuzz(func(t *testing.T, data []byte) {
		hits, err := DecodeHits(data)
		if err != nil {
			return
		}
		rs := make([]topk.Result, len(hits))
		for i, h := range hits {
			rs[i] = topk.Result(h)
		}
		again, err := encodeHits(rs)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%x decodes to %v, which encodes as %x (%v)", data, hits, again, err)
		}
	})
}

// TestHugeBoundsAnswerEveryRow: a search's k, ef or search_l sizes no
// allocation, so a bound of 2^62 answers 200 with every row: k as JSON and
// as columns on FLAT, HNSW and RNSG collections, and HNSW's ef and RNSG's
// search_l beside a k of every row.
func TestHugeBoundsAnswerEveryRow(t *testing.T) {
	const huge, rows = 1 << 62, 16
	srv := httptest.NewServer(NewServer(nil))
	t.Cleanup(srv.Close)
	es := make([]EntityJSON, rows)
	for i := range es {
		es[i] = EntityJSON{ID: int64(i), Vectors: [][]float32{{float32(i), float32(i % 4)}}}
	}
	for _, typ := range []string{"FLAT", "HNSW", "RNSG"} {
		url := srv.URL + "/collections/" + typ
		postWire(t, srv.URL+"/collections", CreateCollectionRequest{Name: typ, VectorFields: []VectorFieldJSON{{Name: "v", Dim: 2}}})
		postInsert(t, url+"/entities", es)
		postWire(t, url+"/flush", struct{}{})
		postWire(t, url+"/index", IndexRequest{Field: "v", Type: typ})
		for _, req := range []SearchRequest{
			{Vector: []float32{0, 0}, K: huge},
			{Vector: []float32{0, 0}, K: rows, Ef: huge},
			{Vector: []float32{0, 0}, K: rows, SearchL: huge},
		} {
			jsonBody, _ := json.Marshal(req)
			colsBody, err := EncodeSearch(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, sent := range []struct {
				contentType string
				body        []byte
			}{{jsonType, jsonBody}, {ColumnsType, colsBody}} {
				var resp SearchResponse
				if err := json.Unmarshal(postBody(t, url+"/search", sent.contentType, sent.body), &resp); err != nil {
					t.Errorf("%s, k %d ef %d search_l %d as %s: %v", typ, req.K, req.Ef, req.SearchL, sent.contentType, err)
				} else if len(resp.Results) != rows {
					t.Errorf("%s, k %d ef %d search_l %d as %s: %d hits, want %d", typ, req.K, req.Ef, req.SearchL, sent.contentType, len(resp.Results), rows)
				}
			}
		}
	}
}

// TestHugeKAllocates: a k of 2^28 over a few rows allocates under 1 MiB,
// not a 4 GiB heap per task.
func TestHugeKAllocates(t *testing.T) {
	h := NewServer(nil)
	post(h, "/collections", jsonType, []byte(mustMarshal(t, CreateCollectionRequest{Name: "c", VectorFields: []VectorFieldJSON{{Name: "v", Dim: 2}}})))
	post(h, "/collections/c/entities", ColumnsType, mustColumns(t, []EntityJSON{{ID: 1, Vectors: [][]float32{{1, 0}}}, {ID: 2, Vectors: [][]float32{{0, 1}}}}))
	post(h, "/collections/c/flush", jsonType, nil)
	body := []byte(`{"vector":[0,0],"k":268435456}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := post(h, "/collections/c/search", jsonType, body)
	runtime.ReadMemStats(&after)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("allocated %d bytes", got)
	}
}
