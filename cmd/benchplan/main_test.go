package main

import (
	"fmt"
	"runtime"
	"testing"

	"vectordb/internal/gpu"
	"vectordb/internal/plan"
)

// TestDevicePlacementGolden pins the device placement table: each row is a
// query shape whose cheapest plan among those offered is structurally
// forced by the CPU cost model (a fixed profile) and the device model's
// default rates (1.5 GB/s PCIe, 30 µs per copy, 6.4e10 dims/s).
func TestDevicePlacementGolden(t *testing.T) {
	pl := plan.New(plan.Config{Profile: &plan.Profile{
		Fingerprint:      plan.Fingerprint(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
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

// TestPlacementGridRegret runs the placement grid at its smoke sizing over
// every batch size and residency the full run sweeps, and holds each cell
// to the artifact's acceptance bound: the plan placed on the cheapest
// estimate runs within 10% of the best static on the device model's
// virtual clocks. The clocks are modeled, so the cells are deterministic.
func TestPlacementGridRegret(t *testing.T) {
	var rep report
	placementGrid(&rep, 20000, 128, 10, 128, 8, []int{1, 8, 64, 256})
	if len(rep.Placement) != 8 {
		t.Fatalf("placement grid has %d cells, want 8", len(rep.Placement))
	}
	for _, c := range rep.Placement {
		t.Run(fmt.Sprintf("nq=%d/%s", c.NQ, c.Residency), func(t *testing.T) {
			if c.Regret > 1.10 {
				t.Errorf("planner chose %s at regret %.2f over %s (cpu=%d gpu=%d hybrid=%d ns)",
					c.Planner, c.Regret, c.Best, c.PureCPUNs, c.PureGPUNs, c.HybridNs)
			}
			if c.PlannerNs <= 0 {
				t.Errorf("chosen plan %s modeled at %d ns", c.Planner, c.PlannerNs)
			}
		})
	}
}
