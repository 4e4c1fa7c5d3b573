package core

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"vectordb/internal/obs"
	"vectordb/internal/vec"
)

// TestQueryAllocs: a query's account is one fixed record that the query
// log copies by value, so logging a query costs at most one allocation
// over running it unlogged; and the sweep every runner shares holds a
// solo query, a batch of two and a fused query to their counts. The shape
// is the probe benchmark's: 32,768 × 32 uniform rows in two 16,384-row
// IVF_FLAT segments (nlist 128), nprobe 4, k 100, plus a second 32-dim
// field for the fused query, which scans.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const dim, rows, segRows = 32, 32768, 16384
	r := rand.New(rand.NewSource(1))
	uniform := func() []float32 {
		v := make([]float32, dim)
		for j := range v {
			v[j] = r.Float32()
		}
		return v
	}
	ents := make([]Entity, rows)
	for i := range ents {
		ents[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{uniform(), uniform()}, Attrs: []int64{int64(i)}}
	}
	schema := testSchema(dim)
	schema.VectorFields = append(schema.VectorFields, VectorField{Name: "w", Dim: dim, Metric: vec.L2})
	open := func(qlog *obs.QueryLog) *Collection {
		cfg := testConfig()
		cfg.FlushRows, cfg.MergeFactor, cfg.IndexRows = segRows, 1<<30, segRows
		cfg.IndexType, cfg.IndexParams = "IVF_FLAT", map[string]string{"nlist": "128"}
		cfg.QueryLog = qlog
		c, err := NewCollection("allocs", schema, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(ents); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := len(c.Stats().SegmentRows); n != rows/segRows {
			t.Fatalf("%d segments, want %d", n, rows/segRows)
		}
		return c
	}
	allocs := func(c *Collection, q Request) float64 {
		if _, err := c.Query(context.Background(), q); err != nil { // calibrates the planner
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := c.Query(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		})
	}
	opts := SearchOptions{K: 100, Nprobe: 4}
	bare := open(nil)
	defer bare.Close()
	for _, row := range []struct {
		name string
		q    Request
		max  float64 // the count read before the runners shared one sweep
	}{
		{"solo", Request{Vector: ents[7].Vectors[0], SearchOptions: opts}, 21},
		{"batch of two", Request{Batch: [][]float32{ents[7].Vectors[0], ents[9].Vectors[0]}, SearchOptions: opts}, 43},
		{"fused", Request{Fields: ents[7].Vectors, SearchOptions: opts}, 43},
	} {
		n := allocs(bare, row.q)
		t.Logf("%s: %.0f allocations unlogged", row.name, n)
		if n > row.max {
			t.Errorf("%s allocates %.0f objects, want at most %.0f", row.name, n, row.max)
		}
	}
	logged := open(obs.NewQueryLog(128, 64, 100*time.Millisecond))
	defer logged.Close()
	solo := Request{Vector: ents[7].Vectors[0], SearchOptions: opts}
	withLog, without := allocs(logged, solo), allocs(bare, solo)
	t.Logf("one query: %.0f allocations unlogged, %.0f with the query log", without, withLog)
	if withLog > without+1 {
		t.Errorf("a logged query allocates %.0f objects, an unlogged one %.0f: want at most one more", withLog, without)
	}
}
