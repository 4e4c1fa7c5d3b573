package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vectordb/internal/blockcache"
	"vectordb/internal/objstore"
	"vectordb/internal/vec"
)

// BenchmarkTieredCachePressure times one top-10 IVF_FLAT search (nlist 64,
// nprobe 8) over 120k rows of dim 64 in 16,384-row sealed segments whose
// vectors and IVF payloads live in extent files, behind a block cache that
// holds the whole dataset (1x) or a quarter of it (4x). Queries are
// perturbed dataset rows, so block reuse across queries tracks the cache
// share: hit_rate, evictions/op and fill_KiB/op (the block bytes misses
// copied in) report the block cache over the timed queries. A query whose
// source row is missing from its top-k fails the benchmark, so a broken
// out-of-core read path cannot pass as a fast one.
func BenchmarkTieredCachePressure(b *testing.B) {
	const n, dim, k, segRows, nqueries = 120000, 64, 10, 16384, 256
	r := rand.New(rand.NewSource(7))
	ents := make([]Entity, n)
	for i := range ents {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		ents[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{v}}
	}
	queries := make([][]float32, nqueries)
	source := make([]int64, nqueries)
	for i := range queries {
		e := ents[r.Intn(n)]
		q := make([]float32, dim)
		for j, x := range e.Vectors[0] {
			q[j] = x + 0.01*float32(r.NormFloat64())
		}
		queries[i], source[i] = q, e.ID
	}
	opts := SearchOptions{Field: "v", K: k, Nprobe: 8}
	search := func(b *testing.B, c *Collection, i int) {
		i %= nqueries
		res, err := c.Search(queries[i], opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range res {
			if h.ID == source[i] {
				return
			}
		}
		b.Fatalf("query %d: source row %d missing from top-%d", i, source[i], k)
	}

	for _, ratio := range []int{1, 4} {
		cache := blockcache.New(int64(n*dim*4/ratio), 0)
		c, err := NewCollection("ooc", Schema{
			VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: vec.L2}},
		}, objstore.NewMemory(), Config{
			FlushRows:     segRows,
			FlushInterval: -1,
			MergeFactor:   1 << 20, // a fixed segment population: no merges
			IndexRows:     segRows,
			SyncIndex:     true,
			IndexType:     "IVF_FLAT",
			IndexParams:   map[string]string{"nlist": "64", "iter": "4"},
			TierDir:       b.TempDir(),
			TierCache:     cache,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i += 1024 {
			if err := c.Insert(ents[i:min(i+1024, n)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nqueries/4; i++ { // warm the cache
			search(b, c, i)
		}
		b.Run(fmt.Sprintf("%dx", ratio), func(b *testing.B) {
			base := cache.Stats()
			for i := 0; i < b.N; i++ {
				search(b, c, i)
			}
			b.StopTimer()
			st := cache.Stats()
			if acc := st.Hits - base.Hits + st.Misses - base.Misses; acc > 0 {
				b.ReportMetric(float64(st.Hits-base.Hits)/float64(acc), "hit_rate")
			}
			b.ReportMetric(float64(st.Evictions-base.Evictions)/float64(b.N), "evictions/op")
			b.ReportMetric(float64(st.FillBytes-base.FillBytes)/1024/float64(b.N), "fill_KiB/op")
		})
		c.Close()
	}
}
