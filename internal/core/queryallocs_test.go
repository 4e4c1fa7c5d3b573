package core

import (
	"math/rand"
	"testing"
	"time"

	"vectordb/internal/obs"
)

// TestQueryAllocs: a query's account is one fixed record that the query
// log copies by value, so logging a query costs at most one allocation
// over running it unlogged. The shape is the probe benchmark's: 32,768 ×
// 32 uniform rows in two 16,384-row IVF_FLAT segments (nlist 128), nprobe
// 4, k 100.
func TestQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	const dim, rows, segRows = 32, 32768, 16384
	r := rand.New(rand.NewSource(1))
	ents := make([]Entity, rows)
	for i := range ents {
		v := make([]float32, dim)
		for j := range v {
			v[j] = r.Float32()
		}
		ents[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{v}, Attrs: []int64{int64(i)}}
	}
	allocs := func(qlog *obs.QueryLog) float64 {
		cfg := testConfig()
		cfg.FlushRows, cfg.MergeFactor, cfg.IndexRows = segRows, 1<<30, segRows
		cfg.IndexType, cfg.IndexParams = "IVF_FLAT", map[string]string{"nlist": "128"}
		cfg.QueryLog = qlog
		c, err := NewCollection("allocs", testSchema(dim), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Insert(ents); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if n := len(c.Stats().SegmentRows); n != rows/segRows {
			t.Fatalf("%d segments, want %d", n, rows/segRows)
		}
		q := Request{Vector: ents[7].Vectors[0], SearchOptions: SearchOptions{K: 100, Nprobe: 4}}
		if _, err := hitsOf(c, q); err != nil { // calibrates the planner
			t.Fatal(err)
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := hitsOf(c, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	bare := allocs(nil)
	logged := allocs(obs.NewQueryLog(128, 64, 100*time.Millisecond))
	t.Logf("one query: %.0f allocations unlogged, %.0f with the query log", bare, logged)
	if logged > bare+1 {
		t.Errorf("a logged query allocates %.0f objects, an unlogged one %.0f: want at most one more", logged, bare)
	}
}
