package experiments

import (
	"fmt"
	"runtime"

	"vectordb/internal/baseline"
	"vectordb/internal/dataset"
	"vectordb/internal/gpu"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/index/sq8h"
	"vectordb/internal/metric"
)

// parallelSystem is a baseline.System that reports how many of the paper's
// 16 vCPUs its architecture can use.
type parallelSystem interface {
	baseline.System
	Parallelism() int
}

// modeledSpeedup returns the concurrency this host cannot provide but the
// architecture would use: the measurement already realizes min(host cores,
// Parallelism); the remainder is modeled (DESIGN.md §1 — this harness often
// runs on a single-core container where every engine serializes equally).
func modeledSpeedup(sys parallelSystem) float64 {
	host := runtime.GOMAXPROCS(0)
	p := sys.Parallelism()
	if p <= host {
		return 1
	}
	return float64(p) / float64(host)
}

// ExpFig8 reproduces Fig. 8: throughput vs. recall on IVF (quantization)
// indexes, comparing Milvus IVF_FLAT / IVF_SQ8 / IVF_PQ / GPU_SQ8H against
// SPTAG-like, Vearch-like, System B and System C on a SIFT- or Deep-like
// dataset. Accuracy sweeps nprobe.
func ExpFig8(datasetName string, sc Scale) (*Table, error) {
	sc = sc.defaults()
	d, m, err := loadDataset(datasetName, sc.N, 1)
	if err != nil {
		return nil, err
	}
	queries := dataset.Queries(d, sc.NQ, 2)
	truth := dataset.GroundTruth(d, queries, sc.K, m)

	t := &Table{
		Name:   "fig8-" + datasetName,
		Title:  fmt.Sprintf("IVF systems, %s n=%d nq=%d k=%d (Fig. 8)", d.Name, sc.N, sc.NQ, sc.K),
		Header: []string{"system", "knob", "recall", "qps", "memMB"},
	}

	ivfParams := map[string]string{"nlist": "256", "iter": "6"}
	sweep := []int{1, 2, 4, 8, 16, 32}

	systems := []struct {
		sys   parallelSystem
		knobs []int
	}{
		{&baseline.Milvus{IndexType: "IVF_FLAT", Params: ivfParams}, sweep},
		{&baseline.Milvus{IndexType: "IVF_SQ8", Params: ivfParams}, sweep},
		{&baseline.Milvus{IndexType: "IVF_PQ", Params: map[string]string{"nlist": "256", "iter": "6", "m": "32"}}, sweep},
		{&baseline.PerQueryLocked{Label: "Vearch-like", IndexType: "IVF_FLAT", Params: ivfParams}, sweep},
		{&baseline.SPTAGLike{}, []int{1, 2, 4}},
		{&baseline.SystemB{}, []int{0}},
		{&baseline.SystemC{}, []int{1, 4, 16}},
	}
	for _, s := range systems {
		if err := s.sys.Build(d, m); err != nil {
			return nil, fmt.Errorf("%s: %w", s.sys.Name(), err)
		}
		for _, knob := range s.knobs {
			res := s.sys.SearchBatch(queries, sc.K, knob) // warm
			// Best of three: at smoke scale one batch takes well under a
			// millisecond, so a single preemption would decide its qps.
			el, _ := bestOf(3, func() error { res = s.sys.SearchBatch(queries, sc.K, knob); return nil })
			t.Add(s.sys.Name(), knob, metric.MeanRecall(truth, res), qps(sc.NQ, el)*modeledSpeedup(s.sys), float64(s.sys.MemoryBytes())/float64(1<<20))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("host exposes %d core(s); each system's architectural concurrency on the paper's 16-vCPU node is modeled on top of measured per-query work", runtime.GOMAXPROCS(0)))

	// GPU_SQ8H: modeled time over the device cost model (DESIGN.md §1).
	dev := gpu.NewDevice(0, gpu.Config{})
	sb, err := sq8h.NewBuilder(m, d.Dim, ivf.Builder{Nlist: 256, MaxIter: 6}, sq8h.Config{Device: dev, Threshold: 64})
	if err != nil {
		return nil, err
	}
	built, err := sb.Build(d.Data, nil)
	if err != nil {
		return nil, err
	}
	hx := built.(*sq8h.SQ8H)
	for _, knob := range sweep {
		p := index.SearchParams{K: sc.K, Nprobe: knob}
		hx.SearchBatch(queries, p) // warm: at 10M scale the data fits in GPU memory (Sec. 7.2)
		res, stats := hx.SearchBatch(queries, p)
		t.Add("Milvus_GPU_SQ8H", knob, metric.MeanRecall(truth, res), qps(sc.NQ, stats.Total()), float64(hx.MemoryBytes())/float64(1<<20))
	}
	t.Notes = append(t.Notes, "GPU_SQ8H throughput uses the device cost model's virtual clock (no GPU hardware available)")
	return t, nil
}

// ExpFig9 reproduces Fig. 9: throughput vs. recall on the HNSW index,
// comparing Milvus against System A (limited parallelism), Vearch-like
// (coarse lock) and System C (single-threaded legacy executor). Accuracy
// sweeps ef.
func ExpFig9(datasetName string, sc Scale) (*Table, error) {
	sc = sc.defaults()
	d, m, err := loadDataset(datasetName, sc.N, 3)
	if err != nil {
		return nil, err
	}
	queries := dataset.Queries(d, sc.NQ, 4)
	truth := dataset.GroundTruth(d, queries, sc.K, m)

	t := &Table{
		Name:   "fig9-" + datasetName,
		Title:  fmt.Sprintf("HNSW systems, %s n=%d nq=%d k=%d (Fig. 9)", d.Name, sc.N, sc.NQ, sc.K),
		Header: []string{"system", "ef", "recall", "qps"},
	}
	hnswParams := map[string]string{"m": "16", "ef_construction": "128"}
	sweep := []int{64, 128, 256}

	systems := []parallelSystem{
		&baseline.Milvus{Label: "Milvus_HNSW", IndexType: "HNSW", Params: hnswParams},
		&baseline.LimitedPool{Label: "System A", IndexType: "HNSW", Params: hnswParams, Workers: 2},
		&baseline.PerQueryLocked{Label: "Vearch-like", IndexType: "HNSW", Params: hnswParams},
		&baseline.LimitedPool{Label: "System C", IndexType: "HNSW", Params: hnswParams, Workers: 1},
	}
	for _, sys := range systems {
		if err := sys.Build(d, m); err != nil {
			return nil, fmt.Errorf("%s: %w", sys.Name(), err)
		}
		for _, ef := range sweep {
			res := sys.SearchBatch(queries, sc.K, ef) // warm
			el := timeIt(func() { res = sys.SearchBatch(queries, sc.K, ef) })
			t.Add(sys.Name(), ef, metric.MeanRecall(truth, res), qps(sc.NQ, el)*modeledSpeedup(sys))
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("host exposes %d core(s); architectural concurrency modeled as in fig8", runtime.GOMAXPROCS(0)))
	return t, nil
}
