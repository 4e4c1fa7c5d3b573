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

// TestSegmentScanUsesCodeKernel: an unindexed L2 segment of at least
// codedBatchFloats runs its first scan on the floats; from the second on
// it reads the code copy first — once the heap holds a bound, each block
// is one code tile dispatch — and scores only its survivors on the float
// batch kernels, never per row. An IP scan has no codes and stays on the
// float batch kernels alone, and so does every scan of a smaller L2
// segment, which never builds a copy.
func TestSegmentScanUsesCodeKernel(t *testing.T) {
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	const rows = codedBatchFloats / 32
	small, schema := scanTestSegment(rows/8, 32, 65)
	vec.ResetDispatchCounts()
	for i := 0; i < 3; i++ {
		if err := small.SearchInto(topk.New(10), schema, 0, small.Vectors[0].Row(7), index.SearchParams{K: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if code, built := vec.CodeDispatchTotal(), small.fieldCodes(0).codes.Load() != nil; code != 0 || built {
		t.Errorf("%d × 32, below the floor: %d code tile dispatches in three scans, codes built %v; want none", rows/8, code, built)
	}
	for _, metric := range []vec.Metric{vec.L2, vec.IP} {
		seg, schema := scanTestSegment(rows, 32, 64)
		schema.VectorFields[0].Metric = metric
		q := seg.Vectors[0].Row(100)
		h := topk.New(10)
		vec.ResetDispatchCounts()
		if err := seg.SearchInto(h, schema, 0, q, index.SearchParams{K: 10}); err != nil {
			t.Fatal(err)
		}
		if code := vec.CodeDispatchTotal(); code != 0 {
			t.Errorf("%v: the first scan made %d code tile dispatches, want 0", metric, code)
		}
		vec.ResetDispatchCounts()
		h.Reset()
		if err := seg.SearchInto(h, schema, 0, q, index.SearchParams{K: 10}); err != nil {
			t.Fatal(err)
		}
		if got := h.Results(); got[0].ID != seg.IDs[100] && metric == vec.L2 {
			t.Fatalf("top hit %v, want the query's own row %d", got[0], seg.IDs[100])
		}
		code, batch := vec.CodeDispatchTotal(), vec.BatchDispatchTotal()
		blocks := int64(rows / index.ScanBlockRows)
		switch {
		case vec.DispatchCount(vec.CurrentLevel()) != 0:
			t.Errorf("%v: per-row kernel dispatches", metric)
		case metric == vec.L2 && (code == 0 || code > blocks || batch == 0):
			t.Errorf("L2: %d code tile and %d batch dispatches, want 1..%d code tiles and the survivors' batches", code, batch, blocks)
		case metric == vec.IP && (code != 0 || batch != blocks):
			t.Errorf("IP: %d code tile and %d batch dispatches, want 0 and %d", code, batch, blocks)
		}
	}
}

// TestSearchBatchUsesTileKernels: an explicit batch over unindexed
// segments runs core's multi-query engine on the tile kernels, each chunk
// of each segment dispatched once for the whole batch, not once per
// query, and no per-row dispatch. An L2 batch with at least
// codedBatchFloats scanned floats per member runs the code tile (at most
// one per 256-row block: a block runs it once its heaps hold a bound) and
// sends the members' survivors to the float batch kernels; one below
// that, and every IP batch, runs the float tile over every row, one
// dispatch per 256-row chunk.
func TestSearchBatchUsesTileKernels(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		metric               vec.Metric
		dim, rows, flush, nq int
		coded                bool
	}{
		{"L2 small", vec.L2, 16, 900, 256, 5, false},
		{"IP small", vec.IP, 16, 900, 256, 5, false},
		{"L2 2 MiB per member", vec.L2, 64, 16384, 4096, 2, true},
		{"L2 below 2 MiB per member", vec.L2, 64, 16384, 4096, 3, false},
	} {
		if got := tc.rows*tc.dim >= tc.nq*codedBatchFloats; got != tc.coded {
			t.Fatalf("%s: coded %v by codedBatchFloats, the case assumes %v", tc.name, got, tc.coded)
		}
		cfg := testConfig()
		cfg.FlushRows = tc.flush
		cfg.MergeFactor = 1 << 30
		schema := testSchema(tc.dim)
		schema.VectorFields[0].Metric = tc.metric
		c, err := NewCollection("tile", schema, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ents := mkEntities(tc.rows, tc.dim, 63)
		if err := c.Insert(ents); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		chunks := int64(0)
		for _, n := range c.Stats().SegmentRows {
			if n > tc.flush {
				t.Fatalf("%s: a segment of %d rows, want at most %d", tc.name, n, tc.flush)
			}
			chunks += int64((n + tileChunkRows - 1) / tileChunkRows)
		}
		queries := make([][]float32, tc.nq)
		for i := range queries {
			queries[i] = ents[i*100].Vectors[0]
		}
		// The process's first query calibrates the planner's profile, which
		// times the per-row kernels on purpose; take it before counting. It
		// is also each segment's first scan, which runs on the floats.
		if _, err := batchOf(context.Background(), c, queries, SearchOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
		prev := vec.DispatchCounting()
		vec.SetDispatchCounting(true)
		vec.ResetDispatchCounts()
		res, err := batchOf(context.Background(), c, queries, SearchOptions{K: 5})
		vec.SetDispatchCounting(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if tc.metric == vec.L2 && (len(r) == 0 || r[0].ID != ents[i*100].ID) {
				t.Fatalf("%s: query %d: %v, want self-match %d first", tc.name, i, r, ents[i*100].ID)
			}
		}
		code, batch := vec.CodeDispatchTotal(), vec.BatchDispatchTotal()
		blocks := int64(tc.rows / index.ScanBlockRows)
		switch {
		case tc.coded && (code == 0 || code > blocks || batch == 0):
			t.Errorf("%s: %d code tile and %d batch dispatches, want 1..%d code tiles and the survivors' batches", tc.name, code, batch, blocks)
		case !tc.coded && (code != 0 || batch != chunks):
			t.Errorf("%s: %d code tile and %d batch dispatches, want 0 and %d (one float tile per chunk)", tc.name, code, batch, chunks)
		}
		if n := vec.DispatchCount(vec.CurrentLevel()); n != 0 {
			t.Errorf("%s: %d per-row kernel dispatches, want 0", tc.name, n)
		}
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
