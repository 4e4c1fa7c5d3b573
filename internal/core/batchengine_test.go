package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// The multi-query engine's contract at its edges: an explicit batch over
// unindexed segments is exact, names rows by the collection's own IDs, and
// holds up for any batch shape — one query, one row, k past the row count,
// no queries at all. Vectors are integer-valued (see intVec), so distances
// compare bit for bit with a scalar brute-force scan.

// scanCollection inserts n integer-valued rows of the given dimension with
// sparse IDs (5000, 5007, 5014, ...) and flushes them into segments of at
// most flushRows rows, none indexed.
func scanCollection(t *testing.T, metric vec.Metric, n, dim, flushRows int, seed int64) (*Collection, []Entity) {
	t.Helper()
	cfg := testConfig()
	cfg.FlushRows = flushRows
	cfg.MergeFactor = 1 << 30
	schema := Schema{
		VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: metric}},
		AttrFields:   []string{"price"},
	}
	c, err := NewCollection("scan", schema, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ents := intEntities(n, dim, seed)
	for i := range ents {
		ents[i].ID = 5000 + 7*int64(i)
	}
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return c, ents
}

// checkExact asserts that got is an exact top-k of q over ents: its
// distances are the k smallest of a scalar scan through metric's pairwise
// distance, and each hit names a distinct row at its reported distance. A
// tie at the k-th distance may be broken either way.
func checkExact(t *testing.T, label string, got []topk.Result, ents []Entity, metric vec.Metric, q []float32, k int) {
	t.Helper()
	dist := metric.Dist()
	byID := make(map[int64]float32, len(ents))
	h := topk.New(len(ents))
	for _, e := range ents {
		d := dist(q, e.Vectors[0])
		byID[e.ID] = d
		h.Push(e.ID, d)
	}
	want := h.Results()
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	seen := make(map[int64]bool, len(got))
	for i, r := range got {
		if r.Distance != want[i].Distance {
			t.Fatalf("%s: hit %d at distance %v, want %v\n got: %v\nwant: %v", label, i, r.Distance, want[i].Distance, got, want)
		}
		if d, ok := byID[r.ID]; !ok || d != r.Distance || seen[r.ID] {
			t.Fatalf("%s: hit %d names row %d at %v, which is not a distinct row at that distance", label, i, r.ID, r.Distance)
		}
		seen[r.ID] = true
	}
}

func intQueries(n, dim int, seed int64) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	qs := make([][]float32, n)
	for i := range qs {
		qs[i] = intVec(r, dim)
	}
	return qs
}

// TestSearchBatchMatchesBruteForce: a batch of 37 queries (tiles of four
// plus a remainder) over four segments returns, for each query, the exact
// top-k of a scalar scan, under the collection's sparse IDs.
func TestSearchBatchMatchesBruteForce(t *testing.T) {
	for _, metric := range []vec.Metric{vec.L2, vec.IP} {
		t.Run(metric.String(), func(t *testing.T) {
			c, ents := scanCollection(t, metric, 500, 16, 128, 1)
			if segs := c.Stats().Segments; segs != 4 {
				t.Fatalf("%d segments, want 4", segs)
			}
			queries := intQueries(37, 16, 2)
			got, err := batchOf(context.Background(), c, queries, SearchOptions{K: 7})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(queries) {
				t.Fatalf("%d result sets for %d queries", len(got), len(queries))
			}
			for i, q := range queries {
				checkExact(t, fmt.Sprintf("query %d", i), got[i], ents, metric, q, 7)
			}
		})
	}
}

// TestSearchBatchAgreesWithPerQuery: over random collection and batch
// shapes, the batch answers every query as its own SearchCtx does — both
// with the exact top-k, so they differ at most in how a tie at the k-th
// distance is broken.
func TestSearchBatchAgreesWithPerQuery(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n, m, dim, k := 50+r.Intn(400), 1+r.Intn(60), 4+r.Intn(28), 1+r.Intn(10)
		metric := vec.L2
		if trial%2 == 1 {
			metric = vec.IP
		}
		t.Run(fmt.Sprintf("%s/n%d_m%d_dim%d_k%d", metric, n, m, dim, k), func(t *testing.T) {
			c, ents := scanCollection(t, metric, n, dim, 64, int64(trial))
			queries := intQueries(m, dim, int64(100+trial))
			opts := SearchOptions{K: k}
			got, err := batchOf(context.Background(), c, queries, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				want, err := c.SearchCtx(context.Background(), q, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkExact(t, fmt.Sprintf("batch query %d", i), got[i], ents, metric, q, k)
				checkExact(t, fmt.Sprintf("query %d alone", i), want, ents, metric, q, k)
			}
		})
	}
}

// TestSearchBatchSingleQuerySingleRow: the smallest batch over the smallest
// collection finds the one row at distance zero.
func TestSearchBatchSingleQuerySingleRow(t *testing.T) {
	c, ents := scanCollection(t, vec.L2, 1, 2, 64, 4)
	got, err := batchOf(context.Background(), c, [][]float32{ents[0].Vectors[0]}, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].ID != ents[0].ID || got[0][0].Distance != 0 {
		t.Fatalf("got %v, want one hit on %d at distance 0", got, ents[0].ID)
	}
}

// TestSearchBatchKExceedsRows: with fewer rows than k (and than the pool
// has workers), every query returns all rows, in brute-force order.
func TestSearchBatchKExceedsRows(t *testing.T) {
	c, ents := scanCollection(t, vec.L2, 3, 4, 64, 5)
	queries := intQueries(2, 4, 6)
	got, err := batchOf(context.Background(), c, queries, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d result sets, want 2", len(got))
	}
	for i, q := range queries {
		if len(got[i]) != 3 {
			t.Fatalf("query %d: %d hits, want all 3 rows", i, len(got[i]))
		}
		checkExact(t, fmt.Sprintf("query %d", i), got[i], ents, vec.L2, q, 10)
	}
}

// TestSearchBatchEmpty: a batch of no queries (an empty, non-nil Batch) is
// answered with no result sets and no error.
func TestSearchBatchEmpty(t *testing.T) {
	c, _ := scanCollection(t, vec.L2, 100, 8, 64, 7)
	got, err := batchOf(context.Background(), c, [][]float32{}, SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
}

// TestSearchBatchRejectsNonDecomposableMetric: cosine has no tile kernel,
// so an explicit batch on a cosine field is a request error, while the same
// query searched alone is answered.
func TestSearchBatchRejectsNonDecomposableMetric(t *testing.T) {
	c, ents := scanCollection(t, vec.Cosine, 200, 8, 64, 8)
	q := ents[10].Vectors[0]
	if got, err := batchOf(context.Background(), c, [][]float32{q}, SearchOptions{K: 5}); err == nil {
		t.Fatalf("cosine batch answered %v, want a request error", got)
	} else if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a request error", err)
	}
	res, err := c.SearchCtx(context.Background(), q, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || res[0].ID != ents[10].ID {
		t.Fatalf("cosine search %v, want 5 hits led by %d", res, ents[10].ID)
	}
}
