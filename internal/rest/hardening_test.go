package rest_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"vectordb/client"
	"vectordb/internal/rest"
)

// TestFilteredSearchWrongDimensionIs400: a range-filtered search whose
// vector is shorter than the field answers 400 on both sides of the
// planner's crossover — a narrow range (attribute-first exact scan) and a
// wide one (bitset pushdown) — and the server keeps serving.
func TestFilteredSearchWrongDimensionIs400(t *testing.T) {
	srv := httptest.NewServer(rest.NewServer(nil))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("c", []client.VectorField{{Name: "v", Dim: 8}}, []string{"price"}); err != nil {
		t.Fatal(err)
	}
	ents := make([]client.Entity, 5000)
	for i := range ents {
		v := make([]float32, 8)
		v[i%8] = float32(i)
		ents[i] = client.Entity{ID: int64(i + 1), Vectors: [][]float32{v}, Attrs: []int64{int64(i)}}
	}
	if err := c.Insert("c", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("c"); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"vector":[1,2,3,4],"k":5,"filter":{"attr":"price","lo":10,"hi":12}}`,
		`{"vector":[1,2,3,4],"k":5,"filter":{"attr":"price","lo":0,"hi":4999}}`,
	} {
		resp := do(t, http.MethodPost, srv.URL+"/collections/c/search", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	res, err := c.Search("c", make([]float32, 8), 5, &client.SearchOptions{
		Filter: &client.Filter{Attr: "price", Lo: 10, Hi: 12},
	})
	if err != nil || len(res) != 3 {
		t.Fatalf("well-formed filtered search afterwards: %v, %v", res, err)
	}
}

// TestFilterMatchingNothingIsEmptyList: a filtered search whose filter
// matches no row answers 200 with an empty list, not null, whichever path
// the planner takes — an IVF collection under an empty range and an empty
// IN-list.
func TestFilterMatchingNothingIsEmptyList(t *testing.T) {
	srv := httptest.NewServer(rest.NewServer(nil))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollectionFull("c", []client.VectorField{{Name: "v", Dim: 8}}, []string{"price"}, []string{"brand"}); err != nil {
		t.Fatal(err)
	}
	ents := make([]client.Entity, 2000)
	for i := range ents {
		v := make([]float32, 8)
		v[i%8] = float32(i)
		ents[i] = client.Entity{ID: int64(i + 1), Vectors: [][]float32{v}, Attrs: []int64{int64(i)}, Cats: []string{"acme"}}
	}
	if err := c.Insert("c", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("c"); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex("c", "v", "IVF_FLAT", map[string]string{"nlist": "16"}); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		`{"vector":[1,0,0,0,0,0,0,0],"k":5,"nprobe":4,"filter":{"attr":"price","lo":5000,"hi":9000}}`,
		`{"vector":[1,0,0,0,0,0,0,0],"k":5,"nprobe":4,"cat_filter":{"attr":"brand","values":["globex"]}}`,
	} {
		resp := do(t, http.MethodPost, srv.URL+"/collections/c/search", body)
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(got)) != `{"results":[]}` {
			t.Errorf("%s: %d %s, want 200 {\"results\":[]}", body, resp.StatusCode, got)
		}
	}
}

// repeat is an endless stream of one byte.
type repeat byte

func (r repeat) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestOversizedBodyIs413: a request body past the 64 MiB cap is refused
// with 413 instead of being buffered, and the server keeps answering.
func TestOversizedBodyIs413(t *testing.T) {
	srv := httptest.NewServer(rest.NewServer(nil))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("c", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	// A JSON string that never closes: the decoder keeps reading until the
	// cap cuts it off, a few bytes before the body would have ended.
	body := io.MultiReader(strings.NewReader(`{"pad":"`), io.LimitReader(repeat('a'), 64<<20))
	resp, err := http.Post(srv.URL+"/collections/c/entities", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if !c.Healthy() {
		t.Fatal("server stopped answering /healthz after an oversized body")
	}
}

// TestDeclaredOversizedBodyIs413: a Content-Length past the cap answers
// 413 before any of the body is read, so no buffer of that size is made.
func TestDeclaredOversizedBodyIs413(t *testing.T) {
	body := &unreadBody{}
	r := httptest.NewRequest(http.MethodPost, "/collections", body)
	r.ContentLength = 64<<20 + 1
	w := httptest.NewRecorder()
	rest.NewServer(nil).ServeHTTP(w, r)
	if w.Code != http.StatusRequestEntityTooLarge || body.read {
		t.Fatalf("status %d, body read %v; want 413 and unread", w.Code, body.read)
	}
}

type unreadBody struct{ read bool }

func (u *unreadBody) Read([]byte) (int, error) {
	u.read = true
	return 0, io.EOF
}

// TestReadBody: a declared length is read exactly and to EOF; a short or
// a long body against it is an error; an unknown length is read whole.
// The 3 MiB bodies are read through the buffer's growth from 1 MiB.
func TestReadBody(t *testing.T) {
	big := strings.Repeat("7", 3<<20+5)
	for _, c := range []struct {
		body string
		n    int64
		ok   bool
	}{
		{`{"k":1}`, 7, true}, {``, 0, true}, {`{"k":1}`, -1, true},
		{`{"k":1}`, 8, false}, {`{"k":1}`, 6, false},
		{big, int64(len(big)), true}, {big, int64(len(big)) + 1, false},
		{big, int64(len(big)) - 1, false},
	} {
		got, err := rest.ReadBody(strings.NewReader(c.body), c.n)
		if (err == nil) != c.ok || c.ok && string(got) != c.body {
			t.Errorf("ReadBody(%d bytes, %d) = %d bytes, %v", len(c.body), c.n, len(got), err)
		}
	}
}

// chunked delivers its reader's bytes at most 64 KiB per Read, as a
// socket does.
type chunked struct{ r io.Reader }

func (c chunked) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), 64<<10)]) }

// BenchmarkReadBody: a 2 MiB and a 5 MiB body under their Content-Length,
// arriving in 64 KiB reads; B/op is what the buffer's growth from
// firstRead costs.
func BenchmarkReadBody(b *testing.B) {
	for _, size := range []int{2 << 20, 5 << 20} {
		body := []byte(strings.Repeat("7", size))
		b.Run(strconv.Itoa(size>>20)+"MiB", func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := rest.ReadBody(chunked{bytes.NewReader(body)}, int64(size))
				if err != nil || len(got) != size {
					b.Fatalf("%d bytes, %v", len(got), err)
				}
			}
		})
	}
}

// TestDeclaredLengthAllocatesAsBodyArrives: a Content-Length of 64 MiB
// with a few bytes behind it and then a failed read answers 400 having
// allocated about the first read's buffer, not the declared 64 MiB.
func TestDeclaredLengthAllocatesAsBodyArrives(t *testing.T) {
	body := io.MultiReader(strings.NewReader(`{"name":"a`), iotest.ErrReader(io.ErrUnexpectedEOF))
	r := httptest.NewRequest(http.MethodPost, "/collections", body)
	r.ContentLength = 64 << 20
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rest.NewServer(nil).ServeHTTP(w, r)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", w.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("allocated %d bytes for a 10-byte body declared as 64 MiB", got)
	}
}

// TestTrailingBytesAre400: every JSON body is read whole, as
// json.Unmarshal reads it, so anything but whitespace after the value
// answers 400 and the request has no effect; the same body without the
// trailer succeeds.
func TestTrailingBytesAre400(t *testing.T) {
	srv := httptest.NewServer(rest.NewServer(nil))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("c", []client.VectorField{{Name: "v", Dim: 2}}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("c", []client.Entity{{ID: 1, Vectors: [][]float32{{1, 1}}, Attrs: []int64{0}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("c"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path, body string
		ok               int
	}{
		{"search", "/collections/c/search", `{"vector":[1,1],"k":1}`, http.StatusOK},
		{"filtered search", "/collections/c/search", `{"vector":[1,1],"k":1,"filter":{"attr":"a","lo":0,"hi":1}}`, http.StatusOK},
		{"insert", "/collections/c/entities", `{"entities":[{"id":2,"vectors":[[2,2]],"attrs":[1]}]}`, http.StatusOK},
		{"delete", "/collections/c/delete", `{"ids":[2]}`, http.StatusOK},
		{"create", "/collections", `{"name":"d","vector_fields":[{"name":"v","dim":2}]}`, http.StatusCreated},
		{"index", "/collections/c/index", `{"type":"FLAT"}`, http.StatusOK},
	} {
		for _, trailer := range []string{`{"garbage`, ` xyz`, `}`, `{}`} {
			resp := do(t, http.MethodPost, srv.URL+tc.path, tc.body+trailer)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with trailer %q: status %d, want 400", tc.name, trailer, resp.StatusCode)
			}
		}
		if resp := do(t, http.MethodPost, srv.URL+tc.path, tc.body+" \n\t\r"); resp.StatusCode != tc.ok {
			t.Errorf("%s with trailing whitespace: status %d, want %d", tc.name, resp.StatusCode, tc.ok)
		}
	}
}

// TestUnencodableResultIs500: a hit whose distance is not a JSON number
// (here -Inf: the negated inner product overflows float32) fails the
// encoding, as
// encoding/json fails it, and answers 500 with an error body instead of a
// truncated 200.
func TestUnencodableResultIs500(t *testing.T) {
	srv := httptest.NewServer(rest.NewServer(nil))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("c", []client.VectorField{{Name: "v", Dim: 2, Metric: "IP"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("c", []client.Entity{{ID: 1, Vectors: [][]float32{{3e38, 3e38}}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("c"); err != nil {
		t.Fatal(err)
	}
	resp := do(t, http.MethodPost, srv.URL+"/collections/c/search", `{"vector":[3e38,3e38],"k":1}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var e rest.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || !strings.Contains(e.Error, "unsupported value") {
		t.Fatalf("error body %+v, %v", e, err)
	}
	if _, err := c.Search("c", []float32{3e38, 3e38}, 1, nil); err == nil {
		t.Fatal("SDK search of an unencodable result succeeded")
	}
}
