package experiments

import (
	"fmt"
	"time"

	"vectordb/internal/baseline"
	"vectordb/internal/cluster"
	"vectordb/internal/core"
	"vectordb/internal/dataset"
	"vectordb/internal/metric"
	"vectordb/internal/objstore"
	"vectordb/internal/vec"
)

// ExpFig10a reproduces Fig. 10a: single-node throughput as the data size
// grows (the paper sweeps 1M→1B on SIFT1B; here the sweep is scaled down
// ~1000×). The expected shape: throughput drops roughly proportionally to
// data size.
func ExpFig10a(sc Scale) (*Table, error) {
	sc = sc.defaults()
	// Sweep sizes relative to the configured scale (defaults reproduce
	// 1k → 80k; the paper sweeps 1M → 1B).
	sizes := []int{sc.N / 20, sc.N / 4, sc.N, sc.N * 4}
	for i, n := range sizes {
		if n < 100 {
			sizes[i] = 100
		}
	}
	t := &Table{
		Name:   "fig10a",
		Title:  "Scalability: throughput vs data size, IVF_FLAT (Fig. 10a)",
		Header: []string{"dataSize", "recall", "qps"},
	}
	for _, n := range sizes {
		d := dataset.SIFTLike(n, 5)
		queries := dataset.Queries(d, sc.NQ, 6)
		truth := dataset.GroundTruth(d, queries, sc.K, vec.L2)
		sys := &baseline.Milvus{IndexType: "IVF_FLAT", Params: map[string]string{"iter": "6"}}
		if err := sys.Build(d, vec.L2); err != nil {
			return nil, err
		}
		nprobe := 8
		res := sys.SearchBatch(queries, sc.K, nprobe) // warm
		el := timeIt(func() { res = sys.SearchBatch(queries, sc.K, nprobe) })
		t.Add(n, metric.MeanRecall(truth, res), qps(sc.NQ, el))
	}
	return t, nil
}

// ExpFig10b reproduces Fig. 10b: distributed throughput as readers are
// added. Data is sharded by consistent hashing; each query fans out to
// every reader, so per-query work per reader shrinks as 1/R.
//
// Hardware substitution (DESIGN.md §1): the readers are in-process and
// share this machine's cores, so wall-clock cannot show cross-machine
// scaling. Instead each reader's shard-local query time is measured for
// real on one core, and cluster throughput is modeled as 1/max_r(time_r) —
// the rate at which a fleet of single-core readers would drain queries.
func ExpFig10b(sc Scale) (*Table, error) {
	sc = sc.defaults()
	nodes := []int{1, 2, 4, 8, 12}
	t := &Table{
		Name:   "fig10b",
		Title:  "Scalability: modeled throughput vs #reader nodes (Fig. 10b)",
		Header: []string{"nodes", "maxShardRows", "qps"},
		Notes:  []string{"throughput = 1/max-per-reader-shard-query-time; shard work measured, fleet parallelism modeled"},
	}
	d := dataset.SIFTLike(sc.N, 7)
	queries := dataset.Queries(d, 16, 8)
	schema := core.Schema{VectorFields: []core.VectorField{{Name: "v", Dim: d.Dim, Metric: vec.L2}}}
	ents := make([]core.Entity, d.N)
	for i := 0; i < d.N; i++ {
		ents[i] = core.Entity{ID: int64(i + 1), Vectors: [][]float32{d.Row(i)}}
	}

	// Enough segments that every reader owns a meaningful shard even at 12
	// nodes (the paper shards 1B vectors; segment count scales with data).
	flushRows := sc.N / 64
	if flushRows < 64 {
		flushRows = 64
	}
	for _, nn := range nodes {
		cl, err := cluster.NewCluster(objstore.NewMemory(), nn,
			core.Config{FlushRows: flushRows, FlushInterval: -1, SyncIndex: true, IndexRows: 1 << 30, MergeFactor: 1 << 30},
			cluster.ReaderConfig{IndexRows: 1 << 30})
		if err != nil {
			return nil, err
		}
		if err := cl.Writer().CreateCollection("c", schema); err != nil {
			return nil, err
		}
		if err := cl.Writer().Insert("c", ents); err != nil {
			return nil, err
		}
		if err := cl.Writer().Flush("c"); err != nil {
			return nil, err
		}
		ring, err := cl.Coord.Ring()
		if err != nil {
			return nil, err
		}
		version, _ := cl.Coord.ManifestVersion("c")
		readers, _ := cl.Coord.Readers()

		// Warm every reader's cache, then measure per-reader shard time.
		var worst time.Duration
		maxShard := 0
		for _, id := range readers {
			r, _ := cl.Reader(id)
			for qi := 0; qi < 2; qi++ {
				if _, err := r.SearchOwned("c", version, ring, queries[:d.Dim], core.SearchOptions{K: sc.K, Nprobe: 8}); err != nil {
					return nil, err
				}
			}
			nq := len(queries) / d.Dim
			el := timeIt(func() {
				for qi := 0; qi < nq; qi++ {
					_, _ = r.SearchOwned("c", version, ring, queries[qi*d.Dim:(qi+1)*d.Dim], core.SearchOptions{K: sc.K, Nprobe: 8})
				}
			})
			per := el / time.Duration(nq)
			if per > worst {
				worst = per
			}
			// shard size for context
			man, _ := cluster.LoadManifest(cl.Store, "c")
			owned := 0
			for _, k := range man.SegmentKeys {
				if ring.Lookup(k) == id {
					owned++
				}
			}
			if owned > maxShard {
				maxShard = owned
			}
		}
		if worst <= 0 {
			worst = time.Nanosecond
		}
		t.Add(nn, fmt.Sprintf("%d segs", maxShard), 1/worst.Seconds())
	}
	return t, nil
}
