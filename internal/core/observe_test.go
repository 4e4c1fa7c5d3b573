package core

import (
	"testing"
	"time"

	"vectordb/internal/objstore"
	"vectordb/internal/obs"
)

// obsTestCollection builds a collection wired to a fresh registry and
// query log, pre-loaded with flushed data.
func obsTestCollection(t *testing.T, n int) (*Collection, *obs.Registry, *obs.QueryLog) {
	t.Helper()
	reg := obs.NewRegistry()
	qlog := obs.NewQueryLog(16, 8, time.Nanosecond) // everything is "slow"
	cfg := testConfig()
	cfg.Obs = reg
	cfg.QueryLog = qlog
	c, err := NewCollection("obs", testSchema(8), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Insert(mkEntities(n, 8, 42)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, reg, qlog
}

// TestSearchTraceCPUPlacement: a plain search stamps the
// plan/segments/per-segment/topk_merge stage chain on its trace, and the
// finished trace lands in the query log.
func TestSearchTraceCPUPlacement(t *testing.T) {
	c, reg, qlog := obsTestCollection(t, 300)
	tr := obs.NewTrace("search")
	query := mkEntities(1, 8, 7)[0].Vectors[0]
	if _, err := c.Search(query, SearchOptions{K: 5, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	stages := sum.Stages()
	if len(stages) < 4 {
		t.Errorf("only %d distinct stages %v, want >= 4", len(stages), stages)
	}
	want := map[string]bool{"plan": false, "segments": false, "topk_merge": false}
	for _, s := range stages {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("missing stage %q in %v", s, stages)
		}
	}
	if got := reg.Counter("vectordb_query_total", "collection", "obs", "type", "vector").Value(); got != 1 {
		t.Errorf("query counter = %d, want 1", got)
	}
	if got := reg.Histogram("vectordb_query_latency_seconds", nil, "collection", "obs").Count(); got != 1 {
		t.Errorf("latency histogram count = %d, want 1", got)
	}
	// The caller passed its own trace; the query still must be logged.
	if qlog.Total() != 1 {
		t.Errorf("query log total = %d, want 1", qlog.Total())
	}
	if rec := qlog.Recent(); len(rec) != 1 || rec[0].Op != "search" {
		t.Errorf("query log recent = %+v, want the search trace", rec)
	}
}

// TestSearchFilteredTraceStrategy: the filtered path stamps the strategy
// chosen by the cost-based planner onto the trace.
func TestSearchFilteredTraceStrategy(t *testing.T) {
	c, reg, _ := obsTestCollection(t, 300)
	tr := obs.NewTrace("filtered")
	query := mkEntities(1, 8, 9)[0].Vectors[0]
	if _, err := c.SearchFiltered(query, "price", 1000, 9000, SearchOptions{K: 5, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	sum := tr.Summary()
	if got, ok := sum.Attr("filter_strategy"); !ok || got == "" {
		t.Errorf("filter_strategy missing from trace attrs %v", sum.Attrs)
	}
	if got := reg.Counter("vectordb_query_total", "collection", "obs", "type", "filtered").Value(); got != 1 {
		t.Errorf("filtered query counter = %d, want 1", got)
	}
}

// TestWriteCountersAndWAL: insert/delete/flush counters track acknowledged
// work, and the WAL append/applied counters agree after Flush.
func TestWriteCountersAndWAL(t *testing.T) {
	c, reg, _ := obsTestCollection(t, 200)
	if err := c.Delete([]int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) int64 { return reg.Counter(name, "collection", "obs").Value() }
	if got := counter("vectordb_insert_rows_total"); got != 200 {
		t.Errorf("insert counter = %d, want 200", got)
	}
	if got := counter("vectordb_delete_rows_total"); got != 3 {
		t.Errorf("delete counter = %d, want 3", got)
	}
	if counter("vectordb_flush_total") == 0 {
		t.Error("flush counter did not move")
	}
	if counter("vectordb_segments_built_total") == 0 {
		t.Error("segment build counter did not move")
	}
	appends, applied := counter("vectordb_wal_appends_total"), counter("vectordb_wal_applied_total")
	if appends != 203 || applied != 203 {
		t.Errorf("wal appends=%d applied=%d, want 203/203", appends, applied)
	}
}
