package rest_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vectordb/client"
	"vectordb/internal/core"
	"vectordb/internal/rest"
)

// TestSearchQueryTimeout: with a server-side per-query deadline so short it
// expires before the query is admitted, the search endpoint answers 504 with
// a JSON error body instead of hanging or returning partial results.
func TestSearchQueryTimeout(t *testing.T) {
	db := core.NewDB(nil)
	t.Cleanup(func() { db.Close() })
	srv := httptest.NewServer(rest.NewServerWithConfig(db, rest.ServerConfig{QueryTimeout: time.Nanosecond}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)

	if err := c.CreateCollection("t", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []client.Entity{{ID: 1, Vectors: [][]float32{{0, 0}}}}); err != nil {
		t.Fatal(err)
	}

	resp := do(t, http.MethodPost, srv.URL+"/collections/t/search", `{"vector":[0,0],"k":1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	var e rest.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body missing (%v, %+v)", err, e)
	}
	// The SDK's columnar search times out the same way, and surfaces the
	// JSON error body's text.
	want := "client: POST /collections/t/search: " + e.Error
	if _, err := c.Search("t", []float32{0, 0}, 1, nil); err == nil || err.Error() != want {
		t.Fatalf("SDK search error %v, want %q", err, want)
	}
}

// TestSearchNoTimeoutStillWorks: the zero-value config imposes no deadline
// and the ordinary search path is unchanged.
func TestSearchNoTimeoutStillWorks(t *testing.T) {
	db := core.NewDB(nil)
	t.Cleanup(func() { db.Close() })
	srv := httptest.NewServer(rest.NewServerWithConfig(db, rest.ServerConfig{}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)

	if err := c.CreateCollection("t", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("t", []client.Entity{{ID: 1, Vectors: [][]float32{{0, 0}}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("t"); err != nil {
		t.Fatal(err)
	}
	rs, err := c.Search("t", []float32{0, 0}, 1, nil)
	if err != nil || len(rs) != 1 || rs[0].ID != 1 {
		t.Fatalf("Search = %v, %v", rs, err)
	}
}
