package experiments

import (
	"context"
	"fmt"
	"time"

	"vectordb/internal/core"
	"vectordb/internal/dataset"
	"vectordb/internal/gpu"
	"vectordb/internal/query"
	"vectordb/internal/vec"
)

// Ablations for the design choices DESIGN.md calls out beyond the paper's
// figures.

// ExpAblationMultiBucketCopy isolates the grouped PCIe copy of Sec. 3.4
// against Faiss's bucket-at-a-time behaviour on the device cost model.
func ExpAblationMultiBucketCopy(sc Scale) (*Table, error) {
	sc = sc.defaults()
	nBuckets := 256
	bucketBytes := int64(64 << 10)
	t := &Table{
		Name:   "ablation-pcie",
		Title:  "Multi-bucket vs bucket-at-a-time PCIe copies (Sec. 3.4 ablation)",
		Header: []string{"strategy", "copies", "bytesMB", "modeledTime"},
	}
	cfg := gpu.Config{MemBytes: 1 << 30, PCIeBandwidth: 1.5e9, PCIeLatency: 30 * time.Microsecond}
	grouped := gpu.NewDevice(0, cfg)
	keys := make([]string, nBuckets)
	sizes := make([]int64, nBuckets)
	for i := range keys {
		keys[i] = fmt.Sprintf("b%d", i)
		sizes[i] = bucketBytes
	}
	if _, err := grouped.EnsureResident(keys, sizes); err != nil {
		return nil, err
	}
	oneByOne := gpu.NewDevice(1, cfg)
	for i := range keys {
		if _, err := oneByOne.EnsureResident(keys[i:i+1], sizes[i:i+1]); err != nil {
			return nil, err
		}
	}
	gc, gb := grouped.Stats()
	oc, ob := oneByOne.Stats()
	t.Add("multi-bucket (Milvus)", gc, float64(gb)/float64(1<<20), grouped.Clock())
	t.Add("bucket-at-a-time (Faiss)", oc, float64(ob)/float64(1<<20), oneByOne.Clock())
	return t, nil
}

// ExpAblationRho sweeps strategy E's partition count ρ, exposing the
// trade-off Sec. 4.1 discusses: too few partitions prune nothing, too many
// degrade each partition's index toward linear search.
func ExpAblationRho(sc Scale) (*Table, error) {
	sc = sc.defaults()
	d := dataset.SIFTLike(sc.N, 23)
	attrs := dataset.Attributes(sc.N, 10000, 24)
	tab, err := query.NewTable(vec.L2, d.Dim, d.Data, nil, [][]int64{attrs})
	if err != nil {
		return nil, err
	}
	queries := dataset.Queries(d, 16, 25)
	rc := query.RangeCond{Attr: 0, Lo: 2000, Hi: 4500} // 25% pass
	t := &Table{
		Name:   "ablation-rho",
		Title:  "Strategy E partition count sweep (Sec. 4.1 ablation)",
		Header: []string{"rho", "time"},
	}
	m := query.DefaultCostModel()
	for _, rho := range []int{1, 2, 4, 8, 16, 32} {
		parts, err := tab.PartitionByAttr(0, rho, "IVF_FLAT", map[string]string{"nlist": "32", "iter": "4"})
		if err != nil {
			return nil, err
		}
		ps := query.Partitions(parts)
		el := timeIt(func() {
			for qi := 0; qi < 16; qi++ {
				vc := query.VecCond{Field: 0, Query: queries[qi*d.Dim : (qi+1)*d.Dim], K: sc.K, Nprobe: 8}
				query.StrategyE(ps, rc, vc, m)
			}
		})
		t.Add(rho, el)
	}
	return t, nil
}

// ExpAblationMerge compares the tiered merge policy against no merging:
// segment counts and query latency after a stream of small flushes
// (Sec. 2.3: "smaller segments are merged into larger ones for fast
// sequential access").
func ExpAblationMerge(sc Scale) (*Table, error) {
	sc = sc.defaults()
	d := dataset.SIFTLike(8192, 26)
	t := &Table{
		Name:   "ablation-merge",
		Title:  "Tiered merging vs no merging (Sec. 2.3 ablation)",
		Header: []string{"policy", "segments", "searchTime"},
	}
	for _, mf := range []struct {
		label  string
		factor int
	}{{"tiered (factor 4)", 4}, {"no merge", 1 << 30}} {
		col, err := core.NewCollection("m", core.Schema{
			VectorFields: []core.VectorField{{Name: "v", Dim: d.Dim, Metric: vec.L2}},
		}, nil, core.Config{FlushRows: 256, FlushInterval: -1, MergeFactor: mf.factor, IndexRows: 1 << 30, SyncIndex: true})
		if err != nil {
			return nil, err
		}
		for b := 0; b < 32; b++ {
			ents := make([]core.Entity, 256)
			for i := range ents {
				row := b*256 + i
				ents[i] = core.Entity{ID: int64(row + 1), Vectors: [][]float32{d.Row(row)}}
			}
			if err := col.Insert(ents); err != nil {
				return nil, err
			}
			if err := col.Flush(); err != nil {
				return nil, err
			}
		}
		queries := dataset.Queries(d, 32, 27)
		el := timeIt(func() {
			for qi := 0; qi < 32; qi++ {
				_, _ = col.Query(context.Background(), core.Request{Vector: queries[qi*d.Dim : (qi+1)*d.Dim], SearchOptions: core.SearchOptions{K: sc.K}})
			}
		})
		t.Add(mf.label, col.Stats().Segments, el)
		col.Close()
	}
	return t, nil
}

// ExpAblationLargeK exercises the k>1024 multi-round GPU top-k of Sec. 3.3,
// reporting the kernel rounds the round-by-round protocol needs.
func ExpAblationLargeK(sc Scale) (*Table, error) {
	sc = sc.defaults()
	n := sc.N
	ids := make([]int64, n)
	dists := make([]float32, n)
	for i := range ids {
		ids[i] = int64(i)
		dists[i] = float32((i * 2654435761) % 1000003)
	}
	t := &Table{
		Name:   "ablation-largek",
		Title:  "GPU large-k multi-round top-k (Sec. 3.3)",
		Header: []string{"k", "rounds", "modeledTime", "results"},
	}
	for _, k := range []int{1024, 2048, 4096, 8192, 16384} {
		dev := gpu.NewDevice(0, gpu.Config{MaxKernelK: 1024, KernelThroughput: 3.2e11})
		res := dev.TopKLargeK(ids, dists, k)
		rounds := (k + 1023) / 1024
		t.Add(k, rounds, dev.Clock(), len(res))
	}
	return t, nil
}

// ExpAblationMultiGPU exercises the segment-based multi-device scheduling
// of Sec. 3.3: a fixed set of segment search tasks spread over 1–4 devices;
// the makespan (max device clock) should shrink near-linearly, and an
// elastically added device must pick up work immediately.
func ExpAblationMultiGPU(sc Scale) (*Table, error) {
	sc = sc.defaults()
	const segments = 64
	segWork := int64(sc.N) * 128 / segments
	t := &Table{
		Name:   "ablation-multigpu",
		Title:  "Segment-based multi-GPU scheduling (Sec. 3.3 ablation)",
		Header: []string{"devices", "makespan", "speedup"},
	}
	var base time.Duration
	for _, nd := range []int{1, 2, 3, 4} {
		s := gpu.NewScheduler()
		for d := 0; d < nd; d++ {
			if err := s.AddDevice(gpu.NewDevice(d, gpu.Config{KernelThroughput: 1e9})); err != nil {
				return nil, err
			}
		}
		for seg := 0; seg < segments; seg++ {
			dev, err := s.Assign(fmt.Sprintf("seg-%d", seg))
			if err != nil {
				return nil, err
			}
			dev.RunKernel(segWork)
		}
		makespan := time.Duration(s.MaxClock())
		if nd == 1 {
			base = makespan
		}
		t.Add(nd, makespan, float64(base)/float64(makespan))
	}
	return t, nil
}
