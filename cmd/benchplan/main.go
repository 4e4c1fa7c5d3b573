// Command benchplan measures the cost-based query planner against every
// static policy it replaces and regenerates BENCH_plan.json (the planner's
// companion artifact; see DESIGN.md §13).
//
// Two grids:
//
//   - placement: the SQ8H index's three execution plans (pure-CPU,
//     pure-GPU, hybrid — Fig. 13 / Algorithm 1) priced on the device
//     model's virtual clocks, swept over batch size × device residency.
//     Each cell is placed on the cheapest estimate: the CPU probe priced by
//     the planner (plan.CostIVFCPU) with a profile at the host cost model's
//     rate, the two device plans priced here from the device model's
//     advertised PCIe and kernel rates (the serving planner has no device
//     venue). The chosen plan's modeled time is compared to the best and
//     worst static;
//   - filter strategy: attribute-filtered search by wall clock — the
//     engine's own strategy A (attribute-first exact scan) vs its own
//     pushdown path (strategy B over a query.Source), swept over
//     selectivity × attribute layout. The planner picks per cell via
//     PickFilterStrategy with the machine's real calibrated profile.
//
// Each cell records the planner's regret (chosen/best) and its speedup
// over the worst static. Acceptance: regret <= 1.10 on every cell, and
// at least a quarter of the cells show >= 1.5x over the worst static —
// the payoff for replacing any single static policy.
//
// Usage:
//
//	benchplan                       # defaults: n=100000 dim=128 k=10
//	benchplan -quick -o /dev/null   # CI smoke sizing
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"vectordb/internal/dataset"
	"vectordb/internal/gpu"
	"vectordb/internal/index"
	_ "vectordb/internal/index/all"
	"vectordb/internal/index/ivf"
	"vectordb/internal/index/sq8h"
	"vectordb/internal/plan"
	"vectordb/internal/query"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

var sink []topk.Result

type placementCell struct {
	NQ        int     `json:"nq"`
	Residency string  `json:"residency"`
	PureCPUNs int64   `json:"pure_cpu_ns"`
	PureGPUNs int64   `json:"pure_gpu_ns"`
	HybridNs  int64   `json:"hybrid_ns"`
	Planner   string  `json:"planner_choice"`
	PlannerNs int64   `json:"planner_ns"`
	Best      string  `json:"best_static"`
	Regret    float64 `json:"regret"`
	VsWorst   float64 `json:"speedup_vs_worst"`
}

type filterCell struct {
	Selectivity float64 `json:"selectivity"`
	Layout      string  `json:"layout"`
	StrategyANs int64   `json:"strategy_a_ns"`
	PushdownNs  int64   `json:"pushdown_ns"`
	Planner     string  `json:"planner_choice"`
	PlannerNs   int64   `json:"planner_ns"`
	Best        string  `json:"best_static"`
	Regret      float64 `json:"regret"`
	VsWorst     float64 `json:"speedup_vs_worst"`
}

type report struct {
	Benchmark   string `json:"benchmark"`
	Environment struct {
		CPU        string `json:"cpu"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Workload   string `json:"workload"`
	} `json:"environment"`
	Placement []placementCell `json:"placement"`
	Filter    []filterCell    `json:"filter"`
	Targets   struct {
		MaxRegret        float64 `json:"max_regret"`
		MinVsWorst       float64 `json:"min_speedup_vs_worst"`
		MinVsWorstCells  float64 `json:"min_speedup_cells_frac"`
		RegretViolations int     `json:"regret_violations"`
		VsWorstCellsFrac float64 `json:"speedup_cells_frac"`
	} `json:"targets"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

func main() {
	n := flag.Int("n", 100000, "dataset rows")
	dim := flag.Int("dim", 128, "vector dimensionality")
	k := flag.Int("k", 10, "top-k")
	nlist := flag.Int("nlist", 512, "SQ8H coarse buckets (placement grid)")
	nprobe := flag.Int("nprobe", 32, "buckets probed per query")
	fNlist := flag.Int("filter-nlist", 64, "IVF buckets (filter grid)")
	fNprobe := flag.Int("filter-nprobe", 32, "buckets probed (filter grid)")
	quick := flag.Bool("quick", false, "CI smoke sizing (small n, fewer cells, single timing run)")
	out := flag.String("o", "BENCH_plan.json", "output JSON path")
	flag.Parse()

	batches := []int{1, 8, 64, 256}
	sels := []float64{0.001, 0.005, 0.1, 0.5, 0.9}
	reps := 3
	if *quick {
		*n, *nlist, *nprobe, *fNlist, *fNprobe = 20000, 128, 8, 32, 16
		batches, sels, reps = []int{1, 64}, []float64{0.001, 0.5}, 1
	}

	var rep report
	rep.Benchmark = "BenchmarkCostBasedPlanner"
	rep.Environment.CPU = cpuModel()
	rep.Environment.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Environment.Go = runtime.Version()
	rep.Environment.Workload = fmt.Sprintf(
		"n=%d dim=%d k=%d metric=L2; placement: SQ8H nlist=%d nprobe=%d on virtual device clocks; filter: IVF_FLAT nlist=%d nprobe=%d wall-clock, uniform attr in [0,10000)",
		*n, *dim, *k, *nlist, *nprobe, *fNlist, *fNprobe)
	rep.Targets.MaxRegret = 1.10
	rep.Targets.MinVsWorst = 1.5
	rep.Targets.MinVsWorstCells = 0.25

	placementGrid(&rep, *n, *dim, *k, *nlist, *nprobe, batches)
	filterGrid(&rep, *n, *dim, *k, *fNlist, *fNprobe, sels, reps)

	var regrets, fast, cells int
	check := func(regret, vsWorst float64) {
		cells++
		if regret > rep.Targets.MaxRegret {
			regrets++
		}
		if vsWorst >= rep.Targets.MinVsWorst {
			fast++
		}
	}
	for _, c := range rep.Placement {
		check(c.Regret, c.VsWorst)
	}
	for _, c := range rep.Filter {
		check(c.Regret, c.VsWorst)
	}
	rep.Targets.RegretViolations = regrets
	rep.Targets.VsWorstCellsFrac = round2(float64(fast) / float64(cells))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("benchplan: %v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		log.Fatalf("benchplan: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("benchplan: %v", err)
	}
	if regrets > 0 {
		fmt.Printf("WARNING: planner exceeded %.0f%% regret on %d of %d cells\n",
			(rep.Targets.MaxRegret-1)*100, regrets, cells)
	}
	if rep.Targets.VsWorstCellsFrac < rep.Targets.MinVsWorstCells {
		fmt.Printf("WARNING: planner >= %.1fx over the worst static on only %.0f%% of cells (target %.0f%%)\n",
			rep.Targets.MinVsWorst, rep.Targets.VsWorstCellsFrac*100, rep.Targets.MinVsWorstCells*100)
	}
}

// placementGrid sweeps the SQ8H plans over batch size × residency on the
// virtual clocks and records the planner's choice per cell.
func placementGrid(rep *report, n, dim, k, nlist, nprobe int, batches []int) {
	d := dataset.SIFTLike(n, 13)
	dev := gpu.NewDevice(0, gpu.Config{}) // defaults: everything fits on the device
	b, err := sq8h.NewBuilder(vec.L2, dim, ivf.Builder{Nlist: nlist, MaxIter: 6}, sq8h.Config{Device: dev})
	if err != nil {
		log.Fatalf("benchplan: %v", err)
	}
	built, err := b.Build(d.Data, nil)
	if err != nil {
		log.Fatalf("benchplan: %v", err)
	}
	hx := built.(*sq8h.SQ8H)
	iv := hx.IVF()
	sp := index.SearchParams{K: k, Nprobe: nprobe}

	// Placement is priced against the models pricing the statics: the CPU
	// leg at the host cost model's rate, the device legs at the device
	// config's advertised kernel and PCIe rates.
	cpu := gpu.DefaultCPUModel()
	pl := plan.New(plan.Config{Profile: &plan.Profile{
		Fingerprint:      plan.Fingerprint(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
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
			log.Fatalf("benchplan: warm device: %v", err)
		}
	}

	for _, nq := range batches {
		queries := dataset.Queries(d, nq, int64(100+nq))
		for _, res := range []string{"cold", "warm"} {
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
			best, worst := bestWorst(times)
			cell := placementCell{
				NQ: nq, Residency: res,
				PureCPUNs: times["pure-cpu"], PureGPUNs: times["pure-gpu"], HybridNs: times["hybrid"],
				Planner: choice, PlannerNs: times[choice], Best: best,
				Regret:  round2(float64(times[choice]) / float64(times[best])),
				VsWorst: round2(float64(times[worst]) / float64(times[choice])),
			}
			rep.Placement = append(rep.Placement, cell)
			fmt.Printf("placement nq=%-4d %-4s: cpu=%s gpu=%s hybrid=%s planner=%s (regret %.2f, %.2fx vs worst)\n",
				nq, res, time.Duration(cell.PureCPUNs), time.Duration(cell.PureGPUNs),
				time.Duration(cell.HybridNs), choice, cell.Regret, cell.VsWorst)
		}
	}
}

// uniformKernel gives every SIMD tier the same batch-kernel rate.
func uniformKernel(dimsPerSec float64) map[string]float64 {
	kernel := map[string]float64{}
	for _, l := range vec.Levels() {
		kernel[l.String()] = dimsPerSec
	}
	return kernel
}

// pricer estimates the device plans of a placement cell from the device
// model's advertised rates; the CPU legs come from the planner. warm means
// every byte a plan touches is already resident on the device.
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

// filterGrid sweeps filtered search over selectivity × layout by wall
// clock, running the engine's own strategies as the statics: strategy A's
// attribute-first exact scan vs strategy B over the table's pushdown path
// (sorted-column compile to a pooled bitset, probed beneath the batch
// kernels). The planner picks per cell from the real calibrated profile,
// priced on the same FilterShape the engine's SourceView reports.
func filterGrid(rep *report, n, dim, k, nlist, nprobe int, sels []float64, reps int) {
	r := rand.New(rand.NewSource(4096))
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	clustered := make([]int64, n)
	for i := range clustered {
		clustered[i] = int64(i * 10000 / n)
	}
	shuffled := make([]int64, n)
	copy(shuffled, clustered)
	r.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	pl := plan.New(plan.Config{Profile: plan.SharedProfile()})

	bench := func(f func(*testing.B)) int64 {
		best := int64(0)
		for i := 0; i < reps; i++ {
			if ns := testing.Benchmark(f).NsPerOp(); i == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	for _, layout := range []struct {
		name  string
		attrs []int64
	}{{"clustered", clustered}, {"shuffled", shuffled}} {
		tab, err := query.NewTable(vec.L2, dim, data, nil, [][]int64{layout.attrs})
		if err != nil {
			log.Fatalf("benchplan: %v", err)
		}
		if err := tab.BuildIndex("IVF_FLAT",
			map[string]string{"nlist": fmt.Sprint(nlist), "iter": "4"}); err != nil {
			log.Fatalf("benchplan: %v", err)
		}
		for _, sel := range sels {
			rc := query.RangeCond{Attr: 0, Lo: 0, Hi: int64(sel*10000) - 1}
			vc := query.VecCond{Query: q, K: k, Nprobe: nprobe}
			matched := tab.CountRange(rc.Attr, rc.Lo, rc.Hi)

			aNs := bench(func(bm *testing.B) {
				for it := 0; it < bm.N; it++ {
					sink = query.StrategyA(tab, rc, vc)
				}
			})
			pushNs := bench(func(bm *testing.B) {
				for it := 0; it < bm.N; it++ {
					sink = query.StrategyB(tab, rc, vc)
				}
			})

			// The shape SourceView reports for an IVF-indexed collection,
			// with the zone-map match count PickStrategy would fill in.
			dec := pl.PickFilterStrategy(plan.FilterShape{
				Rows: n, Matched: matched, Dim: dim, K: k,
				Indexed: true, Nlist: nlist, Nprobe: nprobe,
			})
			times := map[string]int64{"strategy-a": aNs, "pushdown": pushNs}
			choice := "pushdown"
			if dec.Strategy == plan.StrategyPrefilter {
				choice = "strategy-a"
			}
			best, worst := bestWorst(times)
			cell := filterCell{
				Selectivity: sel, Layout: layout.name,
				StrategyANs: aNs, PushdownNs: pushNs,
				Planner: choice, PlannerNs: times[choice], Best: best,
				Regret:  round2(float64(times[choice]) / float64(times[best])),
				VsWorst: round2(float64(times[worst]) / float64(times[choice])),
			}
			rep.Filter = append(rep.Filter, cell)
			fmt.Printf("filter sel=%.3f %-9s: A=%s push=%s planner=%s (regret %.2f, %.2fx vs worst)\n",
				sel, layout.name, time.Duration(aNs), time.Duration(pushNs),
				choice, cell.Regret, cell.VsWorst)
		}
	}
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

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
