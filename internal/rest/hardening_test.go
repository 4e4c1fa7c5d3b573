package rest_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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
