package sq8h_test

import (
	"fmt"
	"math"
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/gpu"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/index/sq8h"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// uniformKernel gives every SIMD tier the same batch-kernel rate.
func uniformKernel(dimsPerSec float64) map[string]float64 {
	kernel := map[string]float64{}
	for _, l := range vec.Levels() {
		kernel[l.String()] = dimsPerSec
	}
	return kernel
}

// pricer estimates SQ8H's device plans (Fig. 13 / Algorithm 1) from the
// device model's advertised rates; the serving planner has no device
// venue, so only the CPU legs come from it. warm means every byte a plan
// touches is already resident on the device.
type pricer struct {
	pl  *plan.Planner
	dev gpu.Config
}

func (p pricer) nsPerDim() float64 { return 1e9 / p.dev.KernelThroughput }

// copyNs prices one PCIe copy of bytes: the launch latency plus the bytes
// at the link rate; nothing to copy costs nothing.
func (p pricer) copyNs(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(p.dev.PCIeLatency.Nanoseconds()) + bytes/p.dev.PCIeBandwidth*1e9
}

// pureGPU prices shipping the non-resident scan bytes over PCIe and running
// the scan on the device kernel. Unindexed data is a flat device scan of
// every row. With IVF geometry the device runs the coarse ranking and scans
// only the probed buckets (the pure-GPU plan of Fig. 13), and only the
// batch's probed buckets cross PCIe — their expected union grows with nq
// until the whole dataset is covered.
func (p pricer) pureGPU(s plan.QueryShape, warm bool) float64 {
	rows, dim := float64(s.Rows()), float64(s.Dim)
	bytesPerRow := dim * 4
	if s.SQ8 {
		bytesPerRow = dim
	}
	scanRows, coarse, coverage, centroidBytes := rows, 0.0, 1.0, 0.0
	if s.Nlist > 0 {
		frac := float64(s.Nprobe) / float64(s.Nlist)
		scanRows = rows * frac
		coarse = float64(s.Nlist) * dim
		centroidBytes = float64(s.Nlist) * dim * 4
		coverage = math.Min(float64(s.NQ)*frac, 1)
	}
	cost := float64(s.NQ) * (coarse + scanRows*dim) * p.nsPerDim()
	if !warm {
		cost += p.copyNs(coverage*rows*bytesPerRow + centroidBytes)
	}
	return cost
}

// hybrid prices Algorithm 1: step 1 compares every query to every bucket
// centroid on the device (centroids copied once when cold); step 2 is the
// planner's CPU probe without its coarse step — the SQ8 scan of the probed
// buckets.
func (p pricer) hybrid(s plan.QueryShape, warm bool) float64 {
	centroids := float64(s.Nlist) * float64(s.Dim)
	step1 := float64(s.NQ) * centroids * p.nsPerDim()
	if !warm {
		step1 += p.copyNs(centroids * 4)
	}
	// A probe with no rows to scan costs exactly its coarse step.
	coarseOnly := s
	coarseOnly.HotRows, coarseOnly.MappedRows, coarseOnly.ColdRows = 0, 0, 0
	step2 := p.pl.CostIVFCPU(s) - p.pl.CostIVFCPU(coarseOnly)
	return step1 + step2
}

// bestWorst returns the keys of the cheapest and most expensive entries.
func bestWorst(times map[string]int64) (best, worst string) {
	for name, ns := range times {
		if best == "" || ns < times[best] {
			best = name
		}
		if worst == "" || ns > times[worst] {
			worst = name
		}
	}
	return best, worst
}

// TestDevicePlacementGolden pins the device placement table: each row is a
// query shape whose cheapest plan among those offered is structurally
// forced by the CPU cost model (a fixed profile) and the device model's
// default rates (1.5 GB/s PCIe, 30 µs per copy, 6.4e10 dims/s).
func TestDevicePlacementGolden(t *testing.T) {
	pl := plan.New(plan.Config{Profile: &plan.Profile{
		KernelDimsPerSec: uniformKernel(8e9),
		SQ8DimsPerSec:    16e9,
	}})
	pr := pricer{pl: pl, dev: gpu.NewDevice(0, gpu.Config{}).Config()}
	cases := []struct {
		name  string
		shape plan.QueryShape
		warm  bool
		plans []string
		want  string
	}{
		{
			// A small single query over unindexed data with a cold device:
			// the PCIe copy dwarfs the CPU scan.
			name:  "small_flat_cold_device",
			shape: plan.QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 10000},
			plans: []string{"flat-cpu", "pure-gpu"},
			want:  "flat-cpu",
		},
		{
			// The same scan with the data already resident on the device:
			// the kernel rate advantage decides.
			name:  "flat_warm_device",
			shape: plan.QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 1000000},
			warm:  true,
			plans: []string{"flat-cpu", "pure-gpu"},
			want:  "pure-gpu",
		},
		{
			// A single probe against a cold device must stream its probed
			// buckets over PCIe — the copy dwarfs the CPU probe.
			name:  "ivf_beats_cold_device",
			shape: plan.QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 1000000, Nlist: 4096, Nprobe: 256},
			plans: []string{"ivf-cpu", "pure-gpu"},
			want:  "ivf-cpu",
		},
		{
			// Fig. 13's large-batch regime: 512 queries amortize the one-time
			// bucket stream and the device kernel-rate advantage takes over,
			// so pure-GPU beats the CPU probe even from cold.
			name:  "batch_amortizes_cold_copy",
			shape: plan.QueryShape{NQ: 512, K: 10, Dim: 128, HotRows: 1000000, Nlist: 4096, Nprobe: 256},
			plans: []string{"ivf-cpu", "pure-gpu"},
			want:  "pure-gpu",
		},
		{
			// A warm device running the coarse ranking plus the probed-bucket
			// scan at the device kernel rate beats the same probe on the CPU.
			name:  "warm_device_probe_beats_cpu",
			shape: plan.QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 1000000, Nlist: 4096, Nprobe: 256},
			warm:  true,
			plans: []string{"ivf-cpu", "pure-gpu"},
			want:  "pure-gpu",
		},
		{
			// Fig. 13's regime: the quantized hybrid beats the CPU scan at
			// small nq because step 1 runs on the resident centroids.
			name:  "sq8h_small_batch",
			shape: plan.QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 1000000, Nlist: 512, Nprobe: 32, SQ8: true},
			warm:  true,
			plans: []string{"hybrid", "flat-cpu"},
			want:  "hybrid",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			price := map[string]func() float64{
				"flat-cpu": func() float64 { return pl.CostFlatCPU(tc.shape) },
				"ivf-cpu":  func() float64 { return pl.CostIVFCPU(tc.shape) },
				"pure-gpu": func() float64 { return pr.pureGPU(tc.shape, tc.warm) },
				"hybrid":   func() float64 { return pr.hybrid(tc.shape, tc.warm) },
			}
			costs := map[string]int64{}
			for _, name := range tc.plans {
				if costs[name] = int64(price[name]()); costs[name] <= 0 {
					t.Errorf("non-positive %s estimate %d", name, costs[name])
				}
			}
			if got, _ := bestWorst(costs); got != tc.want {
				t.Errorf("cheapest %s, want %s (costs %v)", got, tc.want, costs)
			}
		})
	}
}

// TestPlacementGridRegret sweeps the SQ8H plans (n=20k, nlist 128,
// nprobe 8) over every batch size and residency on the device model's
// virtual clocks, places each cell on the cheapest estimate — the CPU probe
// priced by the planner at the host cost model's rate, the device plans by
// pricer at the device config's advertised rates — and holds each of the
// 8 cells to the plan's acceptance bound: the chosen plan runs within 10%
// of the best static. The clocks are modeled, so the cells are
// deterministic.
func TestPlacementGridRegret(t *testing.T) {
	const n, dim, k, nlist, nprobe = 20000, 128, 10, 128, 8
	d := dataset.SIFTLike(n, 13)
	dev := gpu.NewDevice(0, gpu.Config{}) // defaults: everything fits on the device
	b, err := sq8h.NewBuilder(vec.L2, dim, ivf.Builder{Nlist: nlist, MaxIter: 6}, sq8h.Config{Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	built, err := b.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	hx := built.(*sq8h.SQ8H)
	iv := hx.IVF()
	sp := index.SearchParams{K: k, Nprobe: nprobe}

	cpu := gpu.DefaultCPUModel()
	pl := plan.New(plan.Config{Profile: &plan.Profile{
		KernelDimsPerSec: uniformKernel(cpu.DistThroughput),
		SQ8DimsPerSec:    cpu.DistThroughput,
	}})
	pr := pricer{pl: pl, dev: dev.Config()}

	bucketKey := func(b int) string { return fmt.Sprintf("sq8h/bucket/%d", b) }
	evictAll := func() {
		dev.Evict("sq8h/centroids")
		for b := 0; b < iv.Nlist(); b++ {
			dev.Evict(bucketKey(b))
		}
	}
	warmAll := func() {
		keys := []string{"sq8h/centroids"}
		sizes := []int64{int64(iv.Nlist()) * int64(dim) * 4}
		per := int64(iv.CodeBytesPerVector())
		for b := 0; b < iv.Nlist(); b++ {
			keys = append(keys, bucketKey(b))
			sizes = append(sizes, int64(iv.BucketLen(b))*per)
		}
		if _, err := dev.EnsureResident(keys, sizes); err != nil {
			t.Fatalf("warm device: %v", err)
		}
	}

	cells := 0
	for _, nq := range []int{1, 8, 64, 256} {
		queries := dataset.Queries(d, nq, int64(100+nq))
		for _, res := range []string{"cold", "warm"} {
			cells++
			warm := res == "warm"
			prep := evictAll
			if warm {
				prep = warmAll
			}
			run := func(f func([]float32, index.SearchParams) ([][]topk.Result, sq8h.Stats)) int64 {
				prep()
				_, st := f(queries, sp)
				return st.Total().Nanoseconds()
			}
			times := map[string]int64{
				"pure-cpu": run(hx.PlanPureCPU),
				"pure-gpu": run(hx.PlanPureGPU),
				"hybrid":   run(hx.PlanHybrid),
			}
			shape := plan.QueryShape{
				NQ: nq, K: k, Dim: dim, HotRows: n,
				Nlist: nlist, Nprobe: nprobe, SQ8: true,
			}
			choice, _ := bestWorst(map[string]int64{
				"pure-cpu": int64(pl.CostIVFCPU(shape)),
				"pure-gpu": int64(pr.pureGPU(shape, warm)),
				"hybrid":   int64(pr.hybrid(shape, warm)),
			})
			best, _ := bestWorst(times)
			t.Run(fmt.Sprintf("nq=%d/%s", nq, res), func(t *testing.T) {
				if regret := float64(int(float64(times[choice])/float64(times[best])*100+0.5)) / 100; regret > 1.10 {
					t.Errorf("planner chose %s at regret %.2f over %s (modeled ns %v)", choice, regret, best, times)
				}
				if times[choice] <= 0 {
					t.Errorf("chosen plan %s modeled at %d ns", choice, times[choice])
				}
			})
		}
	}
	if cells != 8 {
		t.Fatalf("placement grid has %d cells, want 8", cells)
	}
}
