// Command benchfilter measures the filtered-scan pushdown against the
// per-row callback filter it replaced and regenerates BENCH_filter.json
// (the Sec. 4.1 companion artifact to BENCH_kernels.json). The engine has
// no callback filter any more — a filter is a bitset everywhere below
// core.execute — so the baseline is callbackScan, a private loop in this
// file.
//
// Two read paths are swept over selectivity:
//
//   - flat scan: index.ScanBlocked over n rows with the filter pushed as
//     a dense bitset (compiled per query, as the query layer does) versus
//     a scan with a per-row callback — the pre-pushdown shape that forced
//     every row through a pairwise distance call;
//   - IVF search: a built IVF_FLAT index probed with SearchParams.Bits
//     versus the callback scan over the same probed buckets.
//
// Each point records which mode the crossover chose (dense run-extraction
// at or above index.DenseSelectivity, sparse gather below it) and the
// speedup of the pushed path; the acceptance target is >= 2x at 50%
// selectivity on both paths.
//
// Usage:
//
//	benchfilter                       # defaults: n=100000 dim=128 k=10
//	benchfilter -quick -o /dev/null   # CI smoke sizing
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

	"vectordb/internal/bitset"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

var sink []topk.Result

// callbackScan is the pre-pushdown filtered scan: every row in ids (row IDs
// are positions in data) goes through the keep callback, survivors through
// a pairwise distance call gated on the heap's worst distance.
func callbackScan(h *topk.Heap, q, data []float32, dim int, ids []int64, keep func(int64) bool) {
	worst := float32(math.Inf(1))
	for _, id := range ids {
		if !keep(id) {
			continue
		}
		d := vec.L2Squared(q, data[int(id)*dim:(int(id)+1)*dim])
		if d >= worst {
			continue
		}
		h.Push(id, d)
		if h.Full() {
			worst, _ = h.Worst()
		}
	}
}

type point struct {
	Selectivity float64 `json:"selectivity"`
	Layout      string  `json:"layout"`
	Mode        string  `json:"mode"`
	CallbackNs  int64   `json:"callback_ns_per_op"`
	BitsetNs    int64   `json:"bitset_ns_per_op"`
	Speedup     float64 `json:"speedup"`
}

type report struct {
	Benchmark   string `json:"benchmark"`
	Environment struct {
		CPU        string `json:"cpu"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Workload   string `json:"workload"`
	} `json:"environment"`
	FlatScan      []point `json:"flat_scan"`
	IVFSearch     []point `json:"ivf_search"`
	TargetSpeedup float64 `json:"target_speedup_at_50pct"`
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
	nlist := flag.Int("nlist", 64, "IVF coarse buckets")
	nprobe := flag.Int("nprobe", 32, "IVF buckets to probe (filtered searches probe deep to hold recall)")
	quick := flag.Bool("quick", false, "CI smoke sizing (small n, fewer points)")
	out := flag.String("o", "BENCH_filter.json", "output JSON path")
	flag.Parse()

	sels := []float64{0.01, 0.10, 0.50, 0.90}
	if *quick {
		*n, sels, *nlist, *nprobe = 20000, []float64{0.01, 0.50}, 32, 16
	}

	r := rand.New(rand.NewSource(4096))
	data := make([]float32, *n**dim)
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	q := make([]float32, *dim)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	// Uniform attribute in [0, 10000): selectivity s keeps attr < s*10000.
	// Two layouts bracket real segments: "clustered" leaves the attribute
	// correlated with row order (time-ordered inserts, zone-friendly — the
	// bitset forms long runs), "shuffled" decorrelates it completely (every
	// block is a random mask — the adversarial case for run extraction).
	clustered := make([]int64, *n)
	for i := range clustered {
		clustered[i] = int64(i * 10000 / *n)
	}
	shuffled := make([]int64, *n)
	copy(shuffled, clustered)
	r.Shuffle(*n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	b, err := index.NewBuilder("IVF_FLAT", vec.L2, *dim,
		map[string]string{"nlist": fmt.Sprint(*nlist), "iter": "4"})
	if err != nil {
		log.Fatalf("benchfilter: %v", err)
	}
	built, err := b.Build(data, nil)
	if err != nil {
		log.Fatalf("benchfilter: %v", err)
	}
	ivfIdx := built.(*ivf.IVF)
	allRows := index.IDsOrDefault(nil, *n)

	var rep report
	rep.Benchmark = "BenchmarkFilteredScanPushdown"
	rep.Environment.CPU = cpuModel()
	rep.Environment.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Environment.Go = runtime.Version()
	rep.Environment.Workload = fmt.Sprintf(
		"n=%d dim=%d k=%d metric=L2; uniform attr in [0,10000); IVF_FLAT nlist=%d nprobe=%d; best of 3 runs per point",
		*n, *dim, *k, *nlist, *nprobe)
	rep.TargetSpeedup = 2.0

	// bench3 takes the best of three timing runs: the minimum is the
	// stablest estimate of intrinsic cost on a shared machine.
	bench3 := func(f func(*testing.B)) int64 {
		best := int64(0)
		for i := 0; i < 3; i++ {
			if ns := testing.Benchmark(f).NsPerOp(); i == 0 || ns < best {
				best = ns
			}
		}
		return best
	}

	// fill compiles attr < cut into bits the way query.CompileRange does:
	// word at a time from branchless comparison bits, so the compile cost
	// charged to the pushed path is the production one, not a strawman.
	fill := func(bits *bitset.Bitset, attrs []int64, cut int64) {
		const sign = uint64(1) << 63
		ucut := uint64(cut) ^ sign
		for w0 := 0; w0 < len(attrs); w0 += 64 {
			end := w0 + 64
			if end > len(attrs) {
				end = len(attrs)
			}
			var word uint64
			for j, a := range attrs[w0:end] {
				word |= b2u(uint64(a)^sign < ucut) << uint(j)
			}
			bits.SetWord(w0/64, word)
		}
	}

	for _, layout := range []struct {
		name  string
		attrs []int64
	}{{"clustered", clustered}, {"shuffled", shuffled}} {
		attrs := layout.attrs
		for _, sel := range sels {
			cut := int64(sel * 10000)
			keep := func(id int64) bool { return attrs[id] < cut }

			// Before: the per-row callback filter (pre-pushdown strategy B).
			cbNs := bench3(func(bm *testing.B) {
				for it := 0; it < bm.N; it++ {
					h := topk.GetHeap(*k)
					callbackScan(h, q, data, *dim, allRows, keep)
					sink = h.Results()
					topk.PutHeap(h)
				}
			})
			// After: the pushed bitset, compiled per query — the fill is
			// part of the measured cost.
			bsNs := bench3(func(bm *testing.B) {
				for it := 0; it < bm.N; it++ {
					bits := bitset.Get(*n)
					fill(bits, attrs, cut)
					h := topk.GetHeap(*k)
					index.ScanBlocked(h, vec.L2, q, data, *dim, nil, index.Selection{Bits: bits})
					sink = h.Results()
					topk.PutHeap(h)
					bitset.Put(bits)
				}
			})
			rep.FlatScan = append(rep.FlatScan, point{
				Selectivity: sel,
				Layout:      layout.name,
				Mode:        index.FilterModeName(sel),
				CallbackNs:  cbNs,
				BitsetNs:    bsNs,
				Speedup:     round2(float64(cbNs) / float64(bsNs)),
			})

			cbIVFNs := bench3(func(bm *testing.B) {
				for it := 0; it < bm.N; it++ {
					h := topk.GetHeap(*k)
					for _, b := range ivfIdx.ProbeOrder(q, *nprobe) {
						callbackScan(h, q, data, *dim, ivfIdx.BucketIDs(b), keep)
					}
					sink = h.Results()
					topk.PutHeap(h)
				}
			})
			bsIVFNs := bench3(func(bm *testing.B) {
				for it := 0; it < bm.N; it++ {
					bits := bitset.Get(*n)
					fill(bits, attrs, cut)
					sink = ivfIdx.Search(q, index.SearchParams{K: *k, Nprobe: *nprobe, Bits: bits})
					bitset.Put(bits)
				}
			})
			rep.IVFSearch = append(rep.IVFSearch, point{
				Selectivity: sel,
				Layout:      layout.name,
				Mode:        index.FilterModeName(sel),
				CallbackNs:  cbIVFNs,
				BitsetNs:    bsIVFNs,
				Speedup:     round2(float64(cbIVFNs) / float64(bsIVFNs)),
			})

			fmt.Printf("%s sel=%.2f (%s): flat %d -> %d ns/op (%.2fx), ivf %d -> %d ns/op (%.2fx)\n",
				layout.name, sel, index.FilterModeName(sel),
				cbNs, bsNs, rep.FlatScan[len(rep.FlatScan)-1].Speedup,
				cbIVFNs, bsIVFNs, rep.IVFSearch[len(rep.IVFSearch)-1].Speedup)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatalf("benchfilter: %v", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		log.Fatalf("benchfilter: %v", err)
	}
	if err := f.Close(); err != nil {
		log.Fatalf("benchfilter: %v", err)
	}
	for _, p := range rep.FlatScan {
		if p.Selectivity == 0.50 && p.Speedup < rep.TargetSpeedup {
			fmt.Printf("WARNING: flat-scan speedup %.2fx at 50%% below %.1fx target\n",
				p.Speedup, rep.TargetSpeedup)
		}
	}
}

func round2(x float64) float64 { return float64(int(x*100+0.5)) / 100 }

// b2u compiles to a flagless SETcc — the branchless comparison bit of the
// word fill (same idiom as query.CompileRange).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
