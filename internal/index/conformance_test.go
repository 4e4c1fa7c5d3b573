package index_test

import (
	"fmt"
	"sync"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/core"
	"vectordb/internal/dataset"
	"vectordb/internal/index"
	_ "vectordb/internal/index/all"
	"vectordb/internal/metric"
	"vectordb/internal/objstore"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// searchParams gives every index a generous accuracy budget so the
// conformance recall floors are about correctness, not tuning.
func searchParams(k int) index.SearchParams {
	return index.SearchParams{K: k, Nprobe: 16, Ef: 256, SearchL: 256}
}

// minRecall is the conformance floor per index type on an easy clustered
// workload with generous parameters. Approximate indexes get slack; exact
// ones must be perfect.
var minRecall = map[string]float64{
	"FLAT":     1.0,
	"IVF_FLAT": 0.98,
	"IVF_SQ8":  0.90,
	"IVF_PQ":   0.40, // heavy compression, no re-rank; conformance only checks sanity
	"HNSW":     0.95,
	"RNSG":     0.90,
	"ANNOY":    0.80,
}

func buildAll(t *testing.T, d *dataset.Dataset, ids []int64, m vec.Metric) map[string]index.Index {
	t.Helper()
	out := map[string]index.Index{}
	for _, name := range index.Names() {
		b, err := index.NewBuilder(name, m, d.Dim, map[string]string{"iter": "6"})
		if err != nil {
			t.Fatalf("%s: NewBuilder: %v", name, err)
		}
		idx, err := b.Build(d.Data, ids)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		out[name] = idx
	}
	return out
}

func TestAllIndexesRecallL2(t *testing.T) {
	d := dataset.DeepLike(3000, 1)
	qs := dataset.Queries(d, 20, 2)
	const k = 10
	gt := dataset.GroundTruth(d, qs, k, vec.L2)
	for name, idx := range buildAll(t, d, nil, vec.L2) {
		got := index.SearchBatch(idx, qs, searchParams(k))
		r := metric.MeanRecall(gt, got)
		if r < minRecall[name] {
			t.Errorf("%s: recall %.3f < floor %.3f", name, r, minRecall[name])
		}
		if idx.Size() != d.N || idx.Dim() != d.Dim || idx.Metric() != vec.L2 {
			t.Errorf("%s: metadata wrong: size=%d dim=%d metric=%v", name, idx.Size(), idx.Dim(), idx.Metric())
		}
		if idx.MemoryBytes() <= 0 {
			t.Errorf("%s: MemoryBytes = %d", name, idx.MemoryBytes())
		}
		if idx.Name() != name {
			t.Errorf("Name() = %q, registered as %q", idx.Name(), name)
		}
	}
}

func TestAllIndexesRecallIP(t *testing.T) {
	d := dataset.DeepLike(2000, 3)
	qs := dataset.Queries(d, 15, 4)
	const k = 10
	gt := dataset.GroundTruth(d, qs, k, vec.IP)
	for name, idx := range buildAll(t, d, nil, vec.IP) {
		got := index.SearchBatch(idx, qs, searchParams(k))
		r := metric.MeanRecall(gt, got)
		// IP floors are looser: normalized data makes IP ≈ L2 ordering but
		// quantizers train on L2.
		floor := minRecall[name] - 0.15
		if name == "FLAT" {
			floor = 1.0
		}
		if r < floor {
			t.Errorf("%s (IP): recall %.3f < floor %.3f", name, r, floor)
		}
	}
}

func TestAllIndexesRespectFilter(t *testing.T) {
	d := dataset.DeepLike(1500, 5)
	qs := dataset.Queries(d, 5, 6)
	// Only even IDs pass (nil ids: the ID is the build position).
	bits := bitset.New(d.N)
	for i := 0; i < d.N; i += 2 {
		bits.Set(i)
	}
	for name, idx := range buildAll(t, d, nil, vec.L2) {
		p := searchParams(8)
		p.Bits = bits
		for qi := 0; qi < 5; qi++ {
			res := idx.Search(qs[qi*d.Dim:(qi+1)*d.Dim], p)
			if len(res) == 0 {
				t.Errorf("%s: filtered search returned nothing", name)
			}
			for _, r := range res {
				if r.ID%2 != 0 {
					t.Errorf("%s: filter violated, returned id %d", name, r.ID)
				}
			}
		}
	}
}

func TestAllIndexesCustomIDs(t *testing.T) {
	d := dataset.DeepLike(800, 7)
	ids := make([]int64, d.N)
	for i := range ids {
		ids[i] = int64(i)*10 + 1000000
	}
	q := dataset.Queries(d, 1, 8)
	for name, idx := range buildAll(t, d, ids, vec.L2) {
		res := idx.Search(q, searchParams(5))
		if len(res) == 0 {
			t.Fatalf("%s: no results", name)
		}
		for _, r := range res {
			if r.ID < 1000000 || (r.ID-1000000)%10 != 0 {
				t.Errorf("%s: returned id %d not from custom id space", name, r.ID)
			}
		}
	}
}

func TestAllIndexesResultsSorted(t *testing.T) {
	d := dataset.DeepLike(1000, 9)
	q := dataset.Queries(d, 1, 10)
	for name, idx := range buildAll(t, d, nil, vec.L2) {
		res := idx.Search(q, searchParams(20))
		for i := 1; i < len(res); i++ {
			if res[i].Distance < res[i-1].Distance {
				t.Errorf("%s: results not sorted at %d", name, i)
			}
		}
	}
}

func TestAllIndexesSingleVector(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	for _, name := range index.Names() {
		b, err := index.NewBuilder(name, vec.L2, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		idx, err := b.Build(data, []int64{42})
		if err != nil {
			t.Fatalf("%s: build single vector: %v", name, err)
		}
		res := idx.Search([]float32{1, 2, 3, 4}, searchParams(3))
		if len(res) != 1 || res[0].ID != 42 {
			t.Errorf("%s: single-vector search = %v", name, res)
		}
	}
}

func TestBinaryMetricRejectedWhereUnsupported(t *testing.T) {
	for _, name := range []string{"IVF_FLAT", "HNSW", "RNSG", "ANNOY"} {
		if _, err := index.NewBuilder(name, vec.Hamming, 8, nil); err == nil {
			t.Errorf("%s accepted Hamming metric", name)
		}
	}
}

// Approximate indexes must beat brute-force on per-query scan cost: verify
// IVF probes fewer vectors than FLAT by checking that an IVF search with
// nprobe=1 touches only one bucket's worth of results.
func TestIVFNprobeControlsWork(t *testing.T) {
	d := dataset.DeepLike(2000, 11)
	b, err := index.NewBuilder("IVF_FLAT", vec.L2, d.Dim, map[string]string{"nlist": "32", "iter": "4"})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := b.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Queries(d, 1, 12)
	low := idx.Search(q, index.SearchParams{K: 10, Nprobe: 1})
	high := idx.Search(q, index.SearchParams{K: 10, Nprobe: 32})
	gt := dataset.GroundTruth(d, q, 10, vec.L2)
	rLow := metric.Recall(gt[0], low)
	rHigh := metric.Recall(gt[0], high)
	if rHigh < rLow {
		t.Errorf("nprobe=32 recall %.3f < nprobe=1 recall %.3f", rHigh, rLow)
	}
	if rHigh < 0.999 {
		t.Errorf("nprobe=nlist recall %.3f, want exact", rHigh)
	}
}

func ExampleSearchBatch() {
	d := dataset.DeepLike(500, 1)
	b, _ := index.NewBuilder("FLAT", vec.L2, d.Dim, nil)
	idx, _ := b.Build(d.Data, nil)
	qs := dataset.Queries(d, 2, 2)
	res := index.SearchBatch(idx, qs, index.SearchParams{K: 3})
	fmt.Println(len(res), len(res[0]))
	// Output: 2 3
}

var sink []topk.Result

func BenchmarkIndexSearch(b *testing.B) {
	d := dataset.SIFTLike(20000, 13)
	q := dataset.Queries(d, 1, 14)
	for _, name := range []string{"FLAT", "IVF_FLAT", "IVF_SQ8", "IVF_PQ", "HNSW"} {
		bld, err := index.NewBuilder(name, vec.L2, d.Dim, map[string]string{"iter": "4"})
		if err != nil {
			b.Fatal(err)
		}
		idx, err := bld.Build(d.Data, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink = idx.Search(q, index.SearchParams{K: 50, Nprobe: 8, Ef: 64})
			}
		})
	}
}

// TestConcurrentInsertSearch exercises every registered index type under
// concurrency, two ways. First, a shared immutable index takes parallel
// searches from several goroutines — Search must be safe without external
// synchronization (each search uses only local scratch). Second, a
// Collection configured to auto-build that index type runs concurrent
// inserters, flushers and searchers, so queries race against segment
// creation, merges and index swaps; results must stay well-formed
// throughout, and every acknowledged row must be present at the end.
func TestConcurrentInsertSearch(t *testing.T) {
	d := dataset.DeepLike(800, 21)
	qs := dataset.Queries(d, 8, 22)
	const k = 10
	shared := buildAll(t, d, nil, vec.L2)
	for _, name := range index.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			idx := shared[name]
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						q := qs[(i+g)%8*d.Dim : ((i+g)%8+1)*d.Dim]
						res := idx.Search(q, searchParams(k))
						if len(res) == 0 || len(res) > k {
							t.Errorf("%s: bad result count %d", name, len(res))
							return
						}
						for j := 1; j < len(res); j++ {
							if res[j].Distance < res[j-1].Distance {
								t.Errorf("%s: unsorted results under concurrency", name)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()

			// LSM path: concurrent insert + flush + search while this index
			// type is being auto-built on freshly sealed segments.
			col, err := core.NewCollection("conc", core.Schema{
				VectorFields: []core.VectorField{{Name: "v", Dim: d.Dim, Metric: vec.L2}},
			}, objstore.NewMemory(), core.Config{
				FlushRows:     32,
				FlushInterval: -1,
				IndexRows:     64,
				IndexType:     name,
				IndexParams:   map[string]string{"iter": "4", "nlist": "8"},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close()
			done := make(chan struct{})
			var writers, searchers sync.WaitGroup
			const perWriter = 300
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < perWriter; i += 4 {
						ents := make([]core.Entity, 4)
						for j := range ents {
							row := (w*perWriter + i + j) % d.N
							ents[j] = core.Entity{
								ID:      int64(w+1)<<32 | int64(i+j+1),
								Vectors: [][]float32{append([]float32(nil), d.Row(row)...)},
							}
						}
						if err := col.Insert(ents); err != nil {
							t.Errorf("%s: insert: %v", name, err)
							return
						}
						if i%64 == 0 {
							if err := col.Flush(); err != nil {
								t.Errorf("%s: flush: %v", name, err)
								return
							}
						}
					}
				}(w)
			}
			for s := 0; s < 2; s++ {
				searchers.Add(1)
				go func(s int) {
					defer searchers.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						res, err := col.Search(qs[(i+s)%8*d.Dim:((i+s)%8+1)*d.Dim], core.SearchOptions{K: k, Nprobe: 8, Ef: 64, SearchL: 64})
						if err != nil {
							t.Errorf("%s: concurrent search: %v", name, err)
							return
						}
						for j := 1; j < len(res); j++ {
							if res[j].Distance < res[j-1].Distance {
								t.Errorf("%s: unsorted results from collection", name)
								return
							}
						}
					}
				}(s)
			}
			// Join writers, stop searchers, then verify nothing was lost.
			writers.Wait()
			close(done)
			searchers.Wait()
			if err := col.Flush(); err != nil {
				t.Fatal(err)
			}
			col.WaitIndexed()
			if got := col.Count(); got != 2*perWriter {
				t.Fatalf("%s: Count=%d after concurrent run, want %d", name, got, 2*perWriter)
			}
		})
	}
}
