package experiments

import (
	"context"
	"fmt"
	"math"

	"vectordb/internal/baseline"
	"vectordb/internal/core"
	"vectordb/internal/dataset"
	"vectordb/internal/gpu"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/index/sq8h"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// ExpFig11 reproduces Fig. 11 on the served engine: one Batch request of
// 256+ queries against one Vector request per query, on the same
// unindexed (FLAT) collection, across data sizes, with the original Faiss
// thread-per-query engine over the raw matrix beside them.
// The paper compares two physical CPUs (12 MB and 35.75 MB L3); physical
// cache cannot be varied here, so the table reports the speedup on this
// host's cache. FLAT is exact, so before timing the batch must return the
// per-query results, up to the FP tolerance between kernels (see
// sameNeighbours).
func ExpFig11(sc Scale) (*Table, error) {
	sc = sc.defaults()
	nq := sc.NQ
	if nq < 256 {
		nq = 256
	}
	t := &Table{
		Name:   "fig11",
		Title:  fmt.Sprintf("Cache-aware batching, batch=%d queries (Fig. 11)", nq),
		Header: []string{"dataSize", "original", "perQuery", "batched", "speedup"},
		Notes: []string{
			"original: Faiss thread-per-query model over the raw matrix; perQuery: one Vector request per query; batched: one Batch request; speedup = perQuery / batched",
			"physical L3 cannot be varied on this host; the paper's two-machine comparison is replaced by the speedup column (see EXPERIMENTS.md)",
		},
	}
	if l := vec.CurrentLevel(); vec.Vectorized(l) {
		t.Notes = append(t.Notes, fmt.Sprintf("kernels: %v tier, assembly", l))
	} else {
		t.Notes = append(t.Notes, fmt.Sprintf("kernels: %v tier, pure Go: compute-bound, so perQuery's early-abandon scan outruns the full-row tiles", l))
	}
	for _, n := range scaledSizes(sc.N) {
		d := dataset.SIFTLike(n, 9)
		row, err := fig11Row(d, dataset.Queries(d, nq, 10), sc.K)
		if err != nil {
			return nil, fmt.Errorf("fig11 n=%d: %w", n, err)
		}
		t.Add(append([]any{n}, row...)...)
	}
	return t, nil
}

// fig11Row times the three engines at one data size, each its fastest of
// three runs; the collection never builds an index, so every segment is
// scanned.
func fig11Row(d *dataset.Dataset, queries []float32, k int) ([]any, error) {
	col, err := core.NewCollection("fig11", core.Schema{
		VectorFields: []core.VectorField{{Name: "v", Dim: d.Dim, Metric: vec.L2}},
	}, nil, core.Config{FlushInterval: -1, MergeFactor: 1 << 30, IndexRows: 1 << 30})
	if err != nil {
		return nil, err
	}
	defer col.Close()
	ents := make([]core.Entity, d.N)
	for i := range ents {
		ents[i] = core.Entity{ID: int64(i + 1), Vectors: [][]float32{d.Row(i)}}
	}
	if err := col.Insert(ents); err != nil {
		return nil, err
	}
	if err := col.Flush(); err != nil {
		return nil, err
	}
	qs := make([][]float32, len(queries)/d.Dim)
	for i := range qs {
		qs[i] = queries[i*d.Dim : (i+1)*d.Dim]
	}
	ctx := context.Background()
	opts := core.SearchOptions{K: k}
	want := make([][]topk.Result, len(qs))
	perQuery := func() error {
		for i, q := range qs {
			res, err := col.Query(ctx, core.Request{Vector: q, SearchOptions: opts})
			if err != nil {
				return err
			}
			want[i] = res.Hits
		}
		return nil
	}
	if err := perQuery(); err != nil {
		return nil, err
	}
	got, err := col.Query(ctx, core.Request{Batch: qs, SearchOptions: opts})
	if err != nil {
		return nil, err
	}
	for i := range qs {
		if err := sameNeighbours(got.Batch[i], want[i]); err != nil {
			return nil, fmt.Errorf("batched query %d differs from its Vector request: %w", i, err)
		}
	}
	tOrig, _ := bestOf(3, func() error {
		baseline.ThreadPerQuery(queries, d.Data, d.Dim, k, vec.L2)
		return nil
	})
	tPer, err := bestOf(3, perQuery)
	if err != nil {
		return nil, err
	}
	tBatch, err := bestOf(3, func() error {
		_, err := col.Query(ctx, core.Request{Batch: qs, SearchOptions: opts})
		return err
	})
	if err != nil {
		return nil, err
	}
	return []any{tOrig, tPer, tBatch, float64(tPer) / float64(tBatch)}, nil
}

// sameNeighbours reports whether got and want are the same top-k list up
// to DESIGN.md §8's FP tolerance between kernels (1e-5 relative): the
// batch runs the query-tile kernels and each Vector request the
// early-abandon bound kernels. Every kernel tier scores a row in one order
// from both, so the lists agree bit for bit today; the tolerance keeps the
// check to what §8 promises across kernels. At every rank the distances
// agree within the tolerance; a row may change rank only among rows whose
// distances are within it, and a row only one list holds must sit within it
// of the k-th distance, where the cut falls.
func sameNeighbours(got, want []topk.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	rank := make(map[int64]int, len(want))
	for r, w := range want {
		rank[w.ID] = r
	}
	seen := make(map[int64]bool, len(got))
	for r, g := range got {
		if !closeDist(g.Distance, want[r].Distance) {
			return fmt.Errorf("rank %d distance %v, want %v", r, g.Distance, want[r].Distance)
		}
		if seen[g.ID] {
			return fmt.Errorf("rank %d repeats id %d", r, g.ID)
		}
		seen[g.ID] = true
		s, ok := rank[g.ID]
		switch {
		case ok && !closeDist(g.Distance, want[s].Distance):
			return fmt.Errorf("id %d at distance %v, want %v", g.ID, g.Distance, want[s].Distance)
		case ok && !closeDist(want[s].Distance, want[r].Distance):
			return fmt.Errorf("id %d at rank %d, want rank %d", g.ID, r, s)
		case !ok && !closeDist(g.Distance, want[len(want)-1].Distance):
			return fmt.Errorf("rank %d id %d is not among the wanted rows", r, g.ID)
		}
	}
	return nil
}

// closeDist reports whether a and b agree within 1e-5 relative (absolute
// below magnitude 1).
func closeDist(a, b float32) bool {
	return math.Abs(float64(a)-float64(b)) <= 1e-5*math.Max(1, math.Max(math.Abs(float64(a)), math.Abs(float64(b))))
}

// ExpFig12 reproduces Fig. 12: AVX2 vs AVX512 SIMD tiers on the same sweep
// as Fig. 11, single-threaded so only the kernels differ. Each tier scans
// through its hooked batch kernel — on amd64 hosts with the features, the
// AVX2/AVX512 tiers run real FMA assembly; elsewhere every tier is an
// unrolled multi-accumulator Go kernel and the gaps compress.
func ExpFig12(sc Scale) (*Table, error) {
	sc = sc.defaults()
	nq := sc.NQ
	sizes := scaledSizes(sc.N)
	t := &Table{
		Name:   "fig12",
		Title:  "SIMD kernel tiers, L2 over 128-d vectors (Fig. 12)",
		Header: []string{"dataSize", "scalar", "sse", "avx2", "avx512", "avx512/avx2", "avx512/sse"},
		Notes: []string{
			"tiers scan via their batch kernels (real AVX2+FMA/AVX-512 asm where the host supports it, unrolled multi-accumulator Go elsewhere); ordering matches the paper",
		},
	}
	for _, n := range sizes {
		d := dataset.SIFTLike(n, 11)
		queries := dataset.Queries(d, nq, 12)
		out := make([]float32, d.N)
		run := func(l vec.Level) func() {
			return func() {
				var sink float32
				for qi := 0; qi < nq; qi++ {
					q := queries[qi*d.Dim : (qi+1)*d.Dim]
					//lint:allow kerneldispatch the figure measures each SIMD tier explicitly; dispatch must not re-select
					vec.L2SquaredBatchAt(l, q, d.Data, d.Dim, out)
					sink += out[d.N-1]
				}
				_ = sink
			}
		}
		run(vec.LevelAVX512)() // warm
		ts := timeIt(run(vec.LevelScalar))
		t4 := timeIt(run(vec.LevelSSE))
		t2 := timeIt(run(vec.LevelAVX2))
		t5 := timeIt(run(vec.LevelAVX512))
		t.Add(n, ts, t4, t2, t5, float64(t2)/float64(t5), float64(t4)/float64(t5))
	}
	return t, nil
}

// ExpFig13 reproduces Fig. 13: SQ8H (Algorithm 1) vs pure CPU and pure GPU
// as the query batch grows, with data too large for device memory so the
// pure-GPU plan streams buckets over PCIe. Times come from the device cost
// model's virtual clock (DESIGN.md §1).
func ExpFig13(sc Scale) (*Table, error) {
	sc = sc.defaults()
	d := dataset.SIFTLike(sc.N, 13)
	dev := gpu.NewDevice(0, gpu.Config{
		MemBytes:         int64(sc.N) * int64(d.Dim) / 4, // holds ~25% of the SQ8 codes
		PCIeBandwidth:    1.0e9,                          // the paper's measured 1–2 GB/s
		KernelThroughput: 6.4e10,                         // ~2× the CPU model
	})
	b, err := sq8h.NewBuilder(vec.L2, d.Dim, ivf.Builder{Nlist: 512, MaxIter: 6}, sq8h.Config{Device: dev, Threshold: 1 << 30})
	if err != nil {
		return nil, err
	}
	built, err := b.Build(d.Data, nil)
	if err != nil {
		return nil, err
	}
	hx := built.(*sq8h.SQ8H)
	p := index.SearchParams{K: sc.K, Nprobe: 32}

	// Warm the centroids (resident setup state of SQ8H).
	hx.PlanHybrid(dataset.Queries(d, 1, 14), p)

	t := &Table{
		Name:   "fig13",
		Title:  fmt.Sprintf("GPU indexing: SQ8 plans vs batch size, n=%d (Fig. 13)", sc.N),
		Header: []string{"batch", "pureCPU", "pureGPU", "SQ8H", "gpuTransferMB"},
		Notes:  []string{"times from the device cost model's virtual clock; CPU priced by the same model for comparability"},
	}
	for _, nq := range []int{1, 50, 100, 200, 300, 400, 500} {
		queries := dataset.Queries(d, nq, int64(100+nq))
		// Evict buckets so every batch pays the stream (data ≫ GPU memory),
		// then restore the centroids SQ8H keeps resident permanently (the
		// previous pure-GPU stream may have pushed them out of the LRU).
		for bkt := 0; bkt < 512; bkt++ {
			dev.Evict(fmt.Sprintf("sq8h/bucket/%d", bkt))
		}
		hx.PlanHybrid(queries[:d.Dim], p)
		_, cpu := hx.PlanPureCPU(queries, p)
		_, hyb := hx.PlanHybrid(queries, p)
		_, gpuSt := hx.PlanPureGPU(queries, p)
		t.Add(nq, cpu.Total(), gpuSt.Total(), hyb.Total(), float64(gpuSt.TransferBytes)/float64(1<<20))
	}
	return t, nil
}

// scaledSizes derives the Fig. 11/12 data-size sweep from the configured
// scale (defaults reproduce 1k → 100k; the paper sweeps 10³ → 10⁷).
func scaledSizes(n int) []int {
	sizes := []int{n / 20, n / 2, n * 5 / 2, n * 5}
	for i, s := range sizes {
		if s < 100 {
			sizes[i] = 100
		}
	}
	return sizes
}
