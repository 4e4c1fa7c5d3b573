package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func scanTestSegment(n, dim int, seed int64) (*Segment, *Schema) {
	r := rand.New(rand.NewSource(seed))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	schema := &Schema{VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: vec.L2}}}
	return &Segment{segData: &segData{ID: 1, IDs: ids, Vectors: []*colstore.VectorColumn{colstore.NewVectorColumn(dim, data)}}}, schema
}

// TestSegmentScanUsesBatchKernels: the unindexed segment scan is required
// to go through the hooked batch kernels (conformance counter guard).
func TestSegmentScanUsesBatchKernels(t *testing.T) {
	seg, schema := scanTestSegment(900, 16, 61)
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	vec.ResetDispatchCounts()
	q := make([]float32, 16)
	h := topk.New(5)
	seg.SearchInto(h, schema, 0, q, index.SearchParams{K: 5})
	if h.Len() == 0 {
		t.Fatal("scan found nothing")
	}
	if vec.BatchDispatchTotal() == 0 {
		t.Fatal("Segment.SearchInto made no batch-kernel dispatches")
	}
}

// TestSearchBatchUsesTileKernels: an explicit batch over unindexed
// segments runs core's multi-query engine on the query-tile kernels — one
// dispatch per 256-row chunk of each segment for the whole batch, not one
// per query — and makes no per-row dispatch.
func TestSearchBatchUsesTileKernels(t *testing.T) {
	cfg := testConfig()
	cfg.FlushRows = 256
	cfg.MergeFactor = 1 << 30
	c, err := NewCollection("tile", testSchema(16), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(900, 16, 63)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	segs := c.Stats().Segments
	if segs != 4 {
		t.Fatalf("%d segments, want 4 of at most 256 rows", segs)
	}
	queries := make([][]float32, 5)
	for i := range queries {
		queries[i] = ents[i*100].Vectors[0]
	}
	// The process's first query calibrates the planner's profile, which
	// times the per-row kernels on purpose; take it before counting.
	if _, err := batchOf(context.Background(), c, queries, SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	vec.ResetDispatchCounts()
	res, err := batchOf(context.Background(), c, queries, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if len(r) == 0 || r[0].ID != ents[i*100].ID {
			t.Fatalf("query %d: %v, want self-match %d first", i, r, ents[i*100].ID)
		}
	}
	if n := vec.BatchDispatchTotal(); n != int64(segs) {
		t.Errorf("batch made %d batch-kernel dispatches, want %d (one tile per segment chunk)", n, segs)
	}
	if n := vec.DispatchCount(vec.CurrentLevel()); n != 0 {
		t.Errorf("batch made %d per-row kernel dispatches, want 0", n)
	}
}

// TestSegmentSearchIntoAllocs: with a caller-owned heap and pooled scan
// buffers, the steady-state unindexed segment scan is allocation-free, and
// an IVF_FLAT probe pushes into the heap without a result list of its own:
// what it allocates is its probe order — the ranked centroids off a pooled
// heap and the bucket list made from them.
func TestSegmentSearchIntoAllocs(t *testing.T) {
	for _, tc := range []struct {
		index string
		max   float64
	}{
		{"", 0},
		{"IVF_FLAT", 2},
	} {
		if raceEnabled && tc.index != "" {
			continue // the bucket scan's pooled scratch refills under -race
		}
		seg, schema := scanTestSegment(900, 16, 62)
		if tc.index != "" {
			idx, err := seg.BuildIndex(schema, 0, tc.index, map[string]string{"nlist": "8"})
			if err != nil {
				t.Fatal(err)
			}
			seg = seg.WithIndex(0, idx)
		}
		q := make([]float32, 16)
		h := topk.New(10)
		p := index.SearchParams{K: 10, Nprobe: 2}
		seg.SearchInto(h, schema, 0, q, p) // warm pools + id map
		avg := testing.AllocsPerRun(100, func() {
			h.Reset()
			seg.SearchInto(h, schema, 0, q, p)
		})
		if avg > tc.max+0.5 {
			t.Errorf("index %q: SearchInto allocates %.1f objects/op, want <= %v", tc.index, avg, tc.max)
		}
	}
}

// TestBatchDispatchCountersOnMetrics: the per-tier batch kernel counters
// ride the DB registry next to the pairwise dispatch counts, and a search
// moves the current tier's batch counter.
func TestBatchDispatchCountersOnMetrics(t *testing.T) {
	db := NewDB(nil)
	defer db.Close()
	c, err := db.CreateCollection("m", testSchema(8), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(mkEntities(300, 8, 77)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	vec.ResetDispatchCounts()
	if _, err := hitsOf(c, Request{Vector: mkEntities(1, 8, 78)[0].Vectors[0], SearchOptions: SearchOptions{K: 5}}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := db.Obs().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	want := fmt.Sprintf(`vectordb_simd_batch_dispatch_total{level=%q}`, vec.CurrentLevel().String())
	idx := strings.Index(text, want)
	if idx < 0 {
		t.Fatalf("metrics exposition missing %s", want)
	}
	rest := strings.TrimSpace(text[idx+len(want):])
	if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	if rest == "0" {
		t.Fatalf("%s is zero after a search; batch kernels not counted", want)
	}
}
