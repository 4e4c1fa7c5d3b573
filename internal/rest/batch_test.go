package rest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vectordb/client"
	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/obs/promtext"
	"vectordb/internal/rest"
)

// TestRejectedSearchReportsPressure pins the 503 contract: when admission
// control sheds a search, the JSON body carries the live queue depth and
// inflight count alongside the error, so clients can back off
// proportionally instead of blind-retrying into a saturated server.
func TestRejectedSearchReportsPressure(t *testing.T) {
	db := core.NewDBWithExec(nil, exec.Config{Workers: 1, MaxInflight: 1, AdmitQueue: 1})
	t.Cleanup(func() { _ = db.Close() })
	srv := httptest.NewServer(rest.NewServer(db))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("items", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("items", []client.Entity{{ID: 1, Vectors: [][]float32{{1, 2}}}}); err != nil {
		t.Fatal(err)
	}

	// Saturate admission directly: one query holds the inflight slot, a
	// second parks in the admit queue, so the HTTP search below is the
	// "one more waiter" the pool rejects — deterministically.
	pool := db.Exec()
	release, err := pool.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if rel, err := pool.Admit(ctx); err == nil {
			rel()
		}
	}()
	defer func() { cancel(); <-done }()
	for i := 0; pool.Waiting() == 0; i++ {
		if i > 2000 {
			t.Fatal("admission waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	body, _ := json.Marshal(rest.SearchRequest{Vector: []float32{1, 2}, K: 1})
	resp, err := http.Post(srv.URL+"/collections/items/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var rej rest.RejectedResponse
	if err := json.NewDecoder(resp.Body).Decode(&rej); err != nil {
		t.Fatal(err)
	}
	if rej.Error == "" {
		t.Fatal("rejected body carries no error message")
	}
	if rej.QueueDepth != 1 || rej.Inflight != 1 {
		t.Fatalf("rejected body = %+v, want queue_depth=1 inflight=1", rej)
	}
}

// scrapeBatchformQueries parses /metrics and sums the
// vectordb_batchform_queries_total family across its paths; ok reports
// whether the family exists at all.
func scrapeBatchformQueries(t *testing.T, url string) (total int64, ok bool) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(text)
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for _, f := range fams {
		if f.Name != "vectordb_batchform_queries_total" {
			continue
		}
		for _, s := range f.Samples {
			total += int64(s.Value)
		}
		return total, true
	}
	return 0, false
}

// TestBatchingUnderQueryTimeout drives concurrent searches through a
// server with a per-query deadline and batching at its defaults: the
// former must never convert a live query into a 504 (a query parks only
// behind busy workers, never on a timer), and every eligible query must
// be accounted to exactly one former path on /metrics.
func TestBatchingUnderQueryTimeout(t *testing.T) {
	db := core.NewDB(nil)
	t.Cleanup(func() { _ = db.Close() })
	srv := httptest.NewServer(rest.NewServerWithConfig(db, rest.ServerConfig{
		QueryTimeout: 250 * time.Millisecond,
	}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("items", []client.VectorField{{Name: "v", Dim: 4}}, nil); err != nil {
		t.Fatal(err)
	}
	ents := make([]client.Entity, 256)
	for i := range ents {
		v := float32(i)
		ents[i] = client.Entity{ID: int64(i + 1), Vectors: [][]float32{{v, v + 1, v + 2, v + 3}}}
	}
	if err := c.Insert("items", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}

	const callers, perCaller = 16, 4
	errs := make(chan error, callers*perCaller)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < perCaller; q++ {
				v := float32(g*perCaller + q)
				res, err := c.Search("items", []float32{v, v + 1, v + 2, v + 3}, 3, nil)
				if err != nil {
					errs <- fmt.Errorf("caller %d query %d: %w", g, q, err)
					return
				}
				if len(res) == 0 {
					errs <- fmt.Errorf("caller %d query %d: no results", g, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Conservation on the wire: each of the 64 searches was counted on
	// exactly one former path (batched or passthrough), whatever mix the
	// scheduling produced.
	total, ok := scrapeBatchformQueries(t, srv.URL)
	if !ok {
		t.Fatal("/metrics carries no vectordb_batchform_queries_total family")
	}
	if want := int64(callers * perCaller); total != want {
		t.Fatalf("former paths account for %d queries, want %d", total, want)
	}
}

// TestBatchingDisabled: BatchSize 1 turns server-side batching off at
// collection creation — searches still work and the former's series never
// appear on /metrics.
func TestBatchingDisabled(t *testing.T) {
	db := core.NewDB(nil)
	t.Cleanup(func() { _ = db.Close() })
	srv := httptest.NewServer(rest.NewServerWithConfig(db, rest.ServerConfig{BatchSize: 1}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	if err := c.CreateCollection("items", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("items", []client.Entity{{ID: 1, Vectors: [][]float32{{1, 2}}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Search("items", []float32{1, 2}, 1, nil)
	if err != nil || len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("search = %v, %v", res, err)
	}
	if _, ok := scrapeBatchformQueries(t, srv.URL); ok {
		t.Fatal("batching disabled but former series registered on /metrics")
	}
}
