package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vectordb/internal/objstore"
	"vectordb/internal/vec"
)

// BenchmarkTieredSearch times one top-10 IVF_FLAT search (nlist 64) over
// 120k rows of dim 64 in 16,384-row sealed segments, at nprobe 8 and 32:
// /resident keeps every segment and IVF payload in RAM, /mapped moves them
// into extent files and scans the mapping in place. Queries are perturbed
// dataset rows, and a query whose source row is missing from its top-k
// fails the benchmark, so a broken out-of-core read path cannot pass as a
// fast one.
func BenchmarkTieredSearch(b *testing.B) {
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
	search := func(b *testing.B, c *Collection, opts SearchOptions, i int) {
		i %= nqueries
		res, err := hitsOf(c, Request{Vector: queries[i], SearchOptions: opts})
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

	for _, cell := range []string{"resident", "mapped"} {
		cfg := Config{
			FlushRows:     segRows,
			FlushInterval: -1,
			MergeFactor:   1 << 20, // a fixed segment population: no merges
			IndexRows:     segRows,
			SyncIndex:     true,
			IndexType:     "IVF_FLAT",
			IndexParams:   map[string]string{"nlist": "64", "iter": "4"},
		}
		if cell == "mapped" {
			cfg.TierDir = b.TempDir()
		}
		c, err := NewCollection("ooc", Schema{
			VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: vec.L2}},
		}, objstore.NewMemory(), cfg)
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
		for _, nprobe := range []int{8, 32} {
			opts := SearchOptions{Field: "v", K: k, Nprobe: nprobe}
			for i := 0; i < nqueries/4; i++ { // fault the probed pages in
				search(b, c, opts, i)
			}
			b.Run(fmt.Sprintf("%s/nprobe=%d", cell, nprobe), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					search(b, c, opts, i)
				}
			})
		}
		c.Close()
	}
}
