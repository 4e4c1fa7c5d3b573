package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
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
	tr := obs.NewQueryRecord("search")
	query := mkEntities(1, 8, 7)[0].Vectors[0]
	if _, err := hitsOf(c, Request{Vector: query, SearchOptions: SearchOptions{K: 5, Trace: tr}}); err != nil {
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
	tr := obs.NewQueryRecord("filtered")
	query := mkEntities(1, 8, 9)[0].Vectors[0]
	if _, err := c.SearchFilteredCtx(context.Background(), query, "price", 1000, 9000, SearchOptions{K: 5, Trace: tr}); err != nil {
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

// TestQueryCounterAllocs: a query's vectordb_query_total series is
// resolved when the collection is made, so counting a query of any type
// renders no labels: beginQuery allocates at most its finish func.
func TestQueryCounterAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	c, err := NewCollection("allocs", testSchema(8), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for k := queryKind(0); k < numQueryKinds; k++ {
		var tr *obs.QueryRecord
		if avg := testing.AllocsPerRun(100, func() { c.beginQuery(k, &tr)() }); avg > 1 {
			t.Errorf("counting a %v query allocates %.1f objects, want at most 1", k, avg)
		}
		if got := reg.Counter("vectordb_query_total", "collection", "allocs", "type", k.String()).Value(); got != 101 {
			t.Errorf("%v queries counted %d times, want 101", k, got)
		}
	}
}

// TestDropCollectionFreesItsData: a dropped collection leaves neither its
// data on the heap nor its series on /metrics. Twelve collections of
// 20,000 × 32 floats (2.5 MiB each) are created, filled and dropped under
// new names; the live heap after the last drop stays within one
// collection's vectors of the heap after the first. Re-creating a dropped
// name reports fresh series, not the dropped collection's counts.
func TestDropCollectionFreesItsData(t *testing.T) {
	const (
		rows, dim = 20000, 32
		dataBytes = rows * dim * 4
	)
	db := NewDB(nil)
	defer db.Close()
	cfg := testConfig()
	cfg.FlushRows = rows
	fill := func(name string, n int) {
		t.Helper()
		c, err := db.CreateCollection(name, testSchema(dim), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(mkEntities(n, dim, 7)); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	scrape := func() string {
		var b strings.Builder
		if err := db.Obs().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	const drops = 12
	var first uint64
	for i := 0; i < drops; i++ {
		name := fmt.Sprintf("drop%d", i)
		fill(name, rows)
		if !strings.Contains(scrape(), fmt.Sprintf(`vectordb_live_rows{collection=%q} %d`, name, rows)) {
			t.Fatalf("%s: live rows not on /metrics", name)
		}
		if err := db.DropCollection(name); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = heapInuse()
		}
	}
	if last := heapInuse(); last > first+dataBytes {
		t.Errorf("heap in use grew from %d to %d bytes over %d drops, more than one collection's %d",
			first, last, drops-1, dataBytes)
	}
	out := scrape()
	for i := 0; i < drops; i++ {
		if label := fmt.Sprintf(`collection="drop%d"`, i); strings.Contains(out, label) {
			t.Errorf("/metrics still lists a series with %s", label)
		}
	}

	fill("drop0", 100)
	out = scrape()
	for _, want := range []string{
		`vectordb_live_rows{collection="drop0"} 100`,
		`vectordb_wal_appends_total{collection="drop0"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("re-created collection: /metrics lacks %q", want)
		}
	}
}
