// Package sq8h implements SQ8H ('H' for hybrid), the GPU/CPU co-designed
// index of Sec. 3.4 (Algorithm 1). It wraps an IVF_SQ8 index and a simulated
// GPU device:
//
//   - batches of at least Threshold queries run entirely on the GPU, with
//     probed buckets streamed into device memory in grouped multi-bucket
//     copies (the paper's fix for Faiss's bucket-at-a-time PCIe
//     under-utilization);
//
//   - smaller batches run hybrid: step 1 (ranking the nlist centroids, high
//     compute-to-I/O ratio, centroids resident in GPU memory) on the GPU and
//     step 2 (scattered bucket scans) on the CPU, so no bucket data ever
//     crosses PCIe.
//
// Results are always computed exactly on the host; the device and CPU models
// price the plan on a virtual clock (see internal/gpu).
package sq8h

import (
	"fmt"
	"time"

	"vectordb/internal/gpu"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Config assembles an SQ8H index.
type Config struct {
	Device    *gpu.Device  // required
	CPU       gpu.CPUModel // zero value = gpu.DefaultCPUModel()
	Threshold int          // batch size at which pure-GPU wins; default 256
}

// Builder builds SQ8H indexes: an IVF_SQ8 build plus device wiring.
type Builder struct {
	IVF *ivf.Builder
	Cfg Config
}

// NewBuilder creates an SQ8H builder over the given IVF_SQ8 configuration.
func NewBuilder(metric vec.Metric, dim int, ivfCfg ivf.Builder, cfg Config) (*Builder, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("sq8h: a GPU device is required")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 256
	}
	if cfg.CPU.DistThroughput <= 0 {
		cfg.CPU = gpu.DefaultCPUModel()
	}
	ivfCfg.Fine = ivf.FineSQ8
	ivfCfg.Metric = metric
	ivfCfg.Dim = dim
	return &Builder{IVF: &ivfCfg, Cfg: cfg}, nil
}

// Build implements index.Builder.
func (b *Builder) Build(data []float32, ids []int64) (index.Index, error) {
	base, err := b.IVF.Build(data, ids)
	if err != nil {
		return nil, err
	}
	return &SQ8H{ivf: base.(*ivf.IVF), cfg: b.Cfg}, nil
}

// SQ8H is the built hybrid index.
type SQ8H struct {
	ivf *ivf.IVF
	cfg Config
}

// Stats reports the modeled cost of one plan execution.
type Stats struct {
	Plan          string        // "pure-cpu", "pure-gpu" or "hybrid"
	GPUTime       time.Duration // device busy time
	CPUTime       time.Duration // host busy time
	TransferBytes int64         // bytes moved over PCIe
}

// Total is the modeled end-to-end time (device and host run sequentially).
func (s Stats) Total() time.Duration { return s.GPUTime + s.CPUTime }

// Name implements index.Index.
func (x *SQ8H) Name() string { return "SQ8H" }

// Metric implements index.Index.
func (x *SQ8H) Metric() vec.Metric { return x.ivf.Metric() }

// Dim implements index.Index.
func (x *SQ8H) Dim() int { return x.ivf.Dim() }

// Size implements index.Index.
func (x *SQ8H) Size() int { return x.ivf.Size() }

// MemoryBytes implements index.Index (host-side footprint).
func (x *SQ8H) MemoryBytes() int64 { return x.ivf.MemoryBytes() }

// IVF exposes the wrapped IVF_SQ8 index.
func (x *SQ8H) IVF() *ivf.IVF { return x.ivf }

// Search implements index.Index (a batch of one, which Algorithm 1 routes
// to the hybrid plan).
func (x *SQ8H) Search(query []float32, p index.SearchParams) []topk.Result {
	res, _ := x.SearchBatch(query, p)
	return res[0]
}

// SearchBatch implements Algorithm 1: route by batch size, and price the
// chosen plan.
func (x *SQ8H) SearchBatch(queries []float32, p index.SearchParams) ([][]topk.Result, Stats) {
	nq := len(queries) / x.ivf.Dim()
	if nq >= x.cfg.Threshold {
		return x.PlanPureGPU(queries, p)
	}
	return x.PlanHybrid(queries, p)
}

// step1Work is the centroid-ranking work in distance-dimension units.
func (x *SQ8H) step1Work(nq int) int64 {
	return int64(nq) * int64(x.ivf.Nlist()) * int64(x.ivf.Dim())
}

// probeAll runs step 1 on the host for exact results and returns the probed
// bucket lists plus the total step-2 scan work.
func (x *SQ8H) probeAll(queries []float32, p index.SearchParams) (probes [][]int, scanWork int64) {
	dim := x.ivf.Dim()
	nq := len(queries) / dim
	probes = make([][]int, nq)
	for qi := 0; qi < nq; qi++ {
		probes[qi] = x.ivf.ProbeOrder(queries[qi*dim:(qi+1)*dim], p.Nprobe)
		for _, b := range probes[qi] {
			scanWork += int64(x.ivf.BucketLen(b)) * int64(dim)
		}
	}
	return probes, scanWork
}

// scan is the host (CPU) leg of step 2: each query builds its fused SQ8
// ADC table once and streams every probed bucket's codes through it via the
// batched bucket scan, accumulating into a pooled heap.
func (x *SQ8H) scan(queries []float32, probes [][]int, p index.SearchParams) [][]topk.Result {
	dim := x.ivf.Dim()
	out := make([][]topk.Result, len(probes))
	sel := index.Selection{Bits: p.Bits}
	for qi := range probes {
		h := topk.GetHeap(p.K)
		sq := x.ivf.SQ8ScanQuery(queries[qi*dim : (qi+1)*dim])
		for _, b := range probes[qi] {
			x.ivf.ScanBucketSQ8(sq, b, sel, h)
		}
		out[qi] = h.Results()
		topk.PutHeap(h)
	}
	return out
}

const centroidsKey = "sq8h/centroids"

func (x *SQ8H) centroidsBytes() int64 {
	return int64(x.ivf.Nlist()) * int64(x.ivf.Dim()) * 4
}

// PlanPureCPU executes and prices both steps on the host (the "pure CPU"
// line of Fig. 13).
func (x *SQ8H) PlanPureCPU(queries []float32, p index.SearchParams) ([][]topk.Result, Stats) {
	probes, scanWork := x.probeAll(queries, p)
	res := x.scan(queries, probes, p)
	nq := len(queries) / x.ivf.Dim()
	return res, Stats{
		Plan:    "pure-cpu",
		CPUTime: x.cfg.CPU.Cost(x.step1Work(nq) + scanWork),
	}
}

// PlanPureGPU executes both steps on the device, streaming probed buckets
// into device memory with grouped multi-bucket copies (the "pure GPU" line
// of Fig. 13; with grouping disabled it reproduces Faiss's behaviour).
func (x *SQ8H) PlanPureGPU(queries []float32, p index.SearchParams) ([][]topk.Result, Stats) {
	dev := x.cfg.Device
	start := dev.Clock()
	var transferred int64
	// Centroids live in device memory for step 1.
	tb, err := dev.EnsureResident([]string{centroidsKey}, []int64{x.centroidsBytes()})
	if err == nil {
		transferred += tb
	}
	nq := len(queries) / x.ivf.Dim()
	dev.RunKernel(x.step1Work(nq))
	probes, scanWork := x.probeAll(queries, p)

	// Group the batch's distinct probed buckets into one multi-bucket copy.
	seen := map[int]struct{}{}
	var keys []string
	var sizes []int64
	per := int64(x.ivf.CodeBytesPerVector())
	for _, pr := range probes {
		for _, b := range pr {
			if _, dup := seen[b]; dup {
				continue
			}
			seen[b] = struct{}{}
			keys = append(keys, fmt.Sprintf("sq8h/bucket/%d", b))
			sizes = append(sizes, int64(x.ivf.BucketLen(b))*per)
		}
	}
	if tb, err := dev.EnsureResident(keys, sizes); err == nil {
		transferred += tb
	} else {
		// A bucket larger than device memory: fall back to charging the raw
		// stream cost without residency.
		var total int64
		for _, s := range sizes {
			total += s
		}
		dev.RunKernel(0)
		transferred += total
	}
	dev.RunKernel(scanWork)
	res := x.scan(queries, probes, p)
	return res, Stats{
		Plan:          "pure-gpu",
		GPUTime:       dev.Clock() - start,
		TransferBytes: transferred,
	}
}

// PlanHybrid executes step 1 on the device (centroids resident, no bucket
// transfer) and step 2 on the host — lines 5–6 of Algorithm 1.
func (x *SQ8H) PlanHybrid(queries []float32, p index.SearchParams) ([][]topk.Result, Stats) {
	dev := x.cfg.Device
	start := dev.Clock()
	var transferred int64
	if tb, err := dev.EnsureResident([]string{centroidsKey}, []int64{x.centroidsBytes()}); err == nil {
		transferred += tb
	}
	nq := len(queries) / x.ivf.Dim()
	dev.RunKernel(x.step1Work(nq))
	probes, scanWork := x.probeAll(queries, p)
	res := x.scan(queries, probes, p)
	return res, Stats{
		Plan:          "hybrid",
		GPUTime:       dev.Clock() - start,
		CPUTime:       x.cfg.CPU.Cost(scanWork),
		TransferBytes: transferred,
	}
}
