package rest_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vectordb/client"
	"vectordb/internal/cluster"
	"vectordb/internal/core"
	"vectordb/internal/gpu"
	"vectordb/internal/objstore"
	"vectordb/internal/obs/promtext"
	"vectordb/internal/rest"
)

// do issues a raw request against the test server.
func do(t *testing.T, method, url string, body string) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestMethodNotAllowed: every handler answers a wrong method with 405, an
// Allow header listing what it accepts, and a JSON error body.
func TestMethodNotAllowed(t *testing.T) {
	db := core.NewDB(nil)
	srv := httptest.NewServer(rest.NewServer(db))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("c", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		method, path, allow string
	}{
		{http.MethodPut, "/collections", "GET, POST"},
		{http.MethodGet, "/collections/c", "DELETE"},
		{http.MethodGet, "/collections/c/entities", "POST"},
		{http.MethodGet, "/collections/c/delete", "POST"},
		{http.MethodGet, "/collections/c/search", "POST"},
		{http.MethodGet, "/collections/c/flush", "POST"},
		{http.MethodGet, "/collections/c/index", "POST"},
		{http.MethodPost, "/collections/c/stats", "GET"},
		{http.MethodPost, "/metrics", "GET"},
		{http.MethodPost, "/debug/queries", "GET"},
	}
	for _, tc := range cases {
		resp := do(t, tc.method, srv.URL+tc.path, "")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", tc.method, tc.path, got, tc.allow)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want application/json", tc.method, tc.path, ct)
		}
		var e rest.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s %s: error body missing (%v, %+v)", tc.method, tc.path, err, e)
		}
	}
}

// TestMalformedRequests: bad JSON gets 400 with a JSON error; unknown
// actions and collections get 404.
func TestMalformedRequests(t *testing.T) {
	db := core.NewDB(nil)
	srv := httptest.NewServer(rest.NewServer(db))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("c", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		method, path, body string
		status             int
	}{
		{http.MethodPost, "/collections", "{not json", http.StatusBadRequest},
		{http.MethodPost, "/collections/c/entities", "{not json", http.StatusBadRequest},
		{http.MethodPost, "/collections/c/delete", "[1,2", http.StatusBadRequest},
		{http.MethodPost, "/collections/c/search", "nope", http.StatusBadRequest},
		{http.MethodPost, "/collections/c/index", "nope", http.StatusBadRequest},
		{http.MethodPost, "/collections/c/frobnicate", "{}", http.StatusNotFound},
		{http.MethodPost, "/collections/nope/search", "{}", http.StatusNotFound},
		{http.MethodDelete, "/collections/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp := do(t, tc.method, srv.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.status)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type = %q, want application/json", tc.method, tc.path, ct)
		}
		var e rest.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("%s %s: error body missing (%v, %+v)", tc.method, tc.path, err, e)
		}
	}
}

// TestMetricsEndpoint scrapes /metrics after activity across the
// subsystems and checks the exposition: correct content type, parseable
// text format, and at least 12 distinct series spanning query, WAL,
// cluster cache, merge/GC, and GPU transfer telemetry.
func TestMetricsEndpoint(t *testing.T) {
	db := core.NewDB(nil)
	srv := httptest.NewServer(rest.NewServer(db))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)

	if err := c.CreateCollection("m", []client.VectorField{{Name: "v", Dim: 2}}, []string{"price"}); err != nil {
		t.Fatal(err)
	}
	ents := []client.Entity{
		{ID: 1, Vectors: [][]float32{{0, 0}}, Attrs: []int64{1}},
		{ID: 2, Vectors: [][]float32{{1, 1}}, Attrs: []int64{2}},
	}
	if err := c.Insert("m", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("m"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search("m", []float32{0.5, 0.5}, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Register the cluster-cache and GPU series into the same registry.
	cluster.NewReader("r0", objstore.NewMemory(), cluster.ReaderConfig{Obs: db.Obs()})
	gpu.NewDevice(0, gpu.Config{Obs: db.Obs()})

	resp := do(t, http.MethodGet, srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	series := 0
	byName := map[string]bool{}
	for _, f := range fams {
		series += len(f.Samples)
		byName[f.Name] = true
	}
	if series < 12 {
		t.Errorf("only %d series exposed, want >= 12:\n%s", series, body)
	}
	for _, want := range []string{
		"vectordb_query_total",
		"vectordb_query_latency_seconds",
		"vectordb_wal_appends_total",
		"vectordb_wal_applied_total",
		"vectordb_reader_cache_hits_total",
		"vectordb_reader_cache_misses_total",
		"vectordb_merge_total",
		"vectordb_segment_gc_total",
		"vectordb_gpu_transfer_bytes_total",
		"vectordb_insert_rows_total",
		"vectordb_exec_inflight",
		"vectordb_exec_queue_depth",
		"vectordb_exec_rejected_total",
		"vectordb_exec_task_wait_seconds",
	} {
		if !byName[want] {
			t.Errorf("series %q missing from /metrics", want)
		}
	}
	// Spot-check a value: the search above must be on the query counter.
	found := false
	for _, f := range fams {
		if f.Name != "vectordb_query_total" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["collection"] == "m" && s.Labels["type"] == "vector" && s.Value == 1 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("vectordb_query_total{collection=\"m\",type=\"vector\"} != 1:\n%s", body)
	}
}

// TestDebugQueriesEndpoint: queries show up in /debug/queries with their
// trace spans.
func TestDebugQueriesEndpoint(t *testing.T) {
	db := core.NewDB(nil)
	srv := httptest.NewServer(rest.NewServer(db))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)

	if err := c.CreateCollection("q", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("q", []client.Entity{{ID: 1, Vectors: [][]float32{{1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("q"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search("q", []float32{1, 2}, 1, nil); err != nil {
		t.Fatal(err)
	}

	resp := do(t, http.MethodGet, srv.URL+"/debug/queries", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var dq rest.DebugQueriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&dq); err != nil {
		t.Fatal(err)
	}
	if dq.Total < 1 || len(dq.Recent) < 1 {
		t.Fatalf("debug queries empty: %+v", dq)
	}
	latest := dq.Recent[0]
	if latest.Op == "" || len(latest.Spans) == 0 {
		t.Fatalf("latest trace has no op/spans: %+v", latest)
	}
	stages := latest.Stages()
	if len(stages) < 4 {
		t.Errorf("latest trace has %d distinct stages %v, want >= 4", len(stages), stages)
	}
}
