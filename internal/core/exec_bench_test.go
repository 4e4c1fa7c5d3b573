package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"vectordb/internal/exec"
	"vectordb/internal/obs"
	"vectordb/internal/vec"
)

// benchCollection builds a collection with many small segments — the shape
// the paper's segment-based scheduling targets — so per-query scheduling
// overhead is visible next to the per-segment scan work. It runs on pool
// and records its series in reg.
func benchCollection(b *testing.B, segs, rowsPerSeg, dim int, pool *exec.Pool, reg *obs.Registry) *Collection {
	b.Helper()
	c, err := NewCollection("bench", Schema{
		VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: vec.L2}},
	}, nil, Config{
		FlushRows:      rowsPerSeg,
		FlushInterval:  -1,
		MergeFactor:    1 << 30, // no merging: keep the segment count fixed
		MaxSegmentRows: rowsPerSeg,
		IndexRows:      1 << 30, // no indexes: exact scan per segment
		Exec:           pool,
		Obs:            reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	id := int64(1)
	for s := 0; s < segs; s++ {
		ents := make([]Entity, rowsPerSeg)
		for i := range ents {
			ents[i] = Entity{ID: id, Vectors: [][]float32{benchVec(id, dim)}}
			id++
		}
		if err := c.Insert(ents); err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() { c.Close() })
	return c
}

func benchVec(seed int64, dim int) []float32 {
	v := make([]float32, dim)
	x := uint64(seed)*0x9E3779B97F4A7C15 + 1
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = float32(x%2048)/1024 - 1
	}
	return v
}

// occupancy sums the formed batches of collection "bench" in reg and their
// members (MaxBatch defaults to 16).
func occupancy(reg *obs.Registry) (batches, members int64) {
	for size := 1; size <= 16; size++ {
		n := reg.Counter("vectordb_batchform_occupancy_total", "collection", "bench", "size", strconv.Itoa(size)).Value()
		batches += n
		members += n * int64(size)
	}
	return batches, members
}

// BenchmarkConcurrentSearch measures aggregate search throughput of
// concurrent searchers over scan-only segments, on two pools of the
// machine's worker count: batched, where a freed run slot takes queued
// peers of its query along as one tile batch, and perquery (MaxBatch 1),
// where each queued query runs alone. The first shape is 64 small segments,
// where scheduling overhead shows beside the scans; the second, 32 × 2,048
// rows at dim 128 and c=64, costs about a millisecond a query, so the tile
// kernels' cache reuse is the signal. occupancy is the mean member count
// of the batches formed during the run; any search error fails it.
func BenchmarkConcurrentSearch(b *testing.B) {
	shapes := []struct {
		segs, rows, dim int
		conc            []int
	}{
		{64, 512, 16, []int{1, 8, 64}},
		{32, 2048, 128, []int{64}},
	}
	for _, s := range shapes {
		for _, mode := range []struct {
			name     string
			maxBatch int
		}{{"batched", 0}, {"perquery", 1}} {
			// A deep admission queue, so high concurrency measures
			// batching, not rejection.
			pool := exec.NewPool(exec.Config{AdmitQueue: 1 << 14, MaxBatch: mode.maxBatch})
			b.Cleanup(pool.Close)
			reg := obs.NewRegistry()
			c := benchCollection(b, s.segs, s.rows, s.dim, pool, reg)
			for _, conc := range s.conc {
				b.Run(fmt.Sprintf("%dx%d_d%d/%s/c%d", s.segs, s.rows, s.dim, mode.name, conc), func(b *testing.B) {
					b.ReportAllocs()
					batches0, members0 := occupancy(reg)
					var next atomic.Int64
					b.ResetTimer()
					var wg sync.WaitGroup
					for g := 0; g < conc; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							q := benchVec(int64(g)*7919+3, s.dim)
							for next.Add(1) <= int64(b.N) {
								if _, err := hitsOf(c, Request{Vector: q, SearchOptions: SearchOptions{K: 10}}); err != nil {
									b.Error(err)
									return
								}
							}
						}(g)
					}
					wg.Wait()
					b.StopTimer()
					if batches, members := occupancy(reg); batches > batches0 {
						b.ReportMetric(float64(members-members0)/float64(batches-batches0), "occupancy")
					}
				})
			}
		}
	}
}
