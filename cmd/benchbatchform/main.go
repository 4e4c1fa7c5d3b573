// Command benchbatchform measures server-side dynamic batching against
// the per-query path and regenerates BENCH_batchform.json — the online
// companion to BENCH_kernels.json's offline Fig. 11 claim: the same
// cache-aware tile kernels, now fed by the batch former coalescing live
// concurrent SearchCtx traffic.
//
// For each concurrency level the same query stream runs twice over
// identical collections: once with the former at its defaults and once
// with batching disabled (BatchSize 1). Reported per level: throughput,
// p50/p99 latency (batched latencies include the time parked waiting for
// a worker — the honest cost side), the mean formed-batch occupancy and
// the share of queries that actually rode a batch.
//
// Usage:
//
//	benchbatchform                    # defaults: 32 segs × 2048 rows, dim 128
//	benchbatchform -quick -o /dev/null
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/obs"
	"vectordb/internal/obs/promtext"
	"vectordb/internal/vec"
)

type sideStat struct {
	QPS  float64 `json:"qps"`
	P50  float64 `json:"p50_us"`
	P99  float64 `json:"p99_us"`
	Errs int64   `json:"errors,omitempty"`
}

type runStat struct {
	Concurrency   int      `json:"concurrency"`
	Queries       int      `json:"queries"`
	PerQuery      sideStat `json:"perquery"`
	Batched       sideStat `json:"batched"`
	Speedup       float64  `json:"speedup"`
	MeanOccupancy float64  `json:"mean_occupancy"`
	BatchedShare  float64  `json:"batched_share"`
}

type report struct {
	Benchmark   string `json:"benchmark"`
	Environment struct {
		CPU        string `json:"cpu"`
		GoMaxProcs int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Workload   string `json:"workload"`
	} `json:"environment"`
	TargetSpeedupC64 float64   `json:"target_speedup_c64"`
	Runs             []runStat `json:"runs"`
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

// buildCollection loads segs scan segments of rowsPerSeg deterministic
// rows each. IndexRows is unreachable on purpose: scan segments are where
// the tile kernels (and therefore batching) apply; indexed segments fall
// back to per-member index probes either way.
func buildCollection(pool *exec.Pool, reg *obs.Registry, dim, segs, rowsPerSeg, batchSize int) (*core.Collection, error) {
	schema := core.Schema{VectorFields: []core.VectorField{{Name: "v", Dim: dim, Metric: vec.L2}}}
	col, err := core.NewCollection("bench", schema, nil, core.Config{
		FlushRows:      rowsPerSeg,
		FlushInterval:  -1,
		MergeFactor:    1 << 20, // keep the segment layout fixed
		MaxSegmentRows: rowsPerSeg,
		IndexRows:      1 << 30,
		Exec:           pool,
		Obs:            reg,
		BatchSize:      batchSize,
	})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(7))
	id := int64(0)
	for s := 0; s < segs; s++ {
		ents := make([]core.Entity, rowsPerSeg)
		for i := range ents {
			id++
			v := make([]float32, dim)
			for j := range v {
				v[j] = float32(r.NormFloat64())
			}
			ents[i] = core.Entity{ID: id, Vectors: [][]float32{v}}
		}
		if err := col.Insert(ents); err != nil {
			return nil, err
		}
		if err := col.Flush(); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// formerStats is the cumulative batchform accounting scraped from a
// registry; runLoad reports per-run deltas.
type formerStats struct {
	riders, batches, batched, passthrough int64
	triggers                              map[string]int64
}

func scrapeFormer(reg *obs.Registry) formerStats {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		log.Fatalf("benchbatchform: scrape: %v", err)
	}
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		log.Fatalf("benchbatchform: exposition does not parse: %v", err)
	}
	st := formerStats{triggers: map[string]int64{}}
	for _, f := range fams {
		switch f.Name {
		case "vectordb_batchform_batches_total":
			for _, s := range f.Samples {
				st.triggers[s.Labels["trigger"]] += int64(s.Value)
			}
		case "vectordb_batchform_occupancy_total":
			for _, s := range f.Samples {
				size, err := strconv.Atoi(s.Labels["size"])
				if err != nil {
					log.Fatalf("benchbatchform: occupancy size %q: %v", s.Labels["size"], err)
				}
				st.riders += int64(size) * int64(s.Value)
				st.batches += int64(s.Value)
			}
		case "vectordb_batchform_queries_total":
			for _, s := range f.Samples {
				switch s.Labels["path"] {
				case "batched":
					st.batched += int64(s.Value)
				case "passthrough":
					st.passthrough += int64(s.Value)
				}
			}
		}
	}
	return st
}

// runLoad drives total queries through col at the given concurrency and
// returns throughput plus the latency distribution.
func runLoad(col *core.Collection, queries [][]float32, concurrency, total, k int) (sideStat, time.Duration) {
	lat := make([]time.Duration, total)
	var next, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				t0 := time.Now()
				_, err := col.SearchCtx(context.Background(), queries[i%len(queries)], core.SearchOptions{K: k})
				lat[i] = time.Since(t0)
				if err != nil {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(total-1))
		return float64(lat[i]) / float64(time.Microsecond)
	}
	return sideStat{
		QPS:  float64(total) / wall.Seconds(),
		P50:  pct(0.50),
		P99:  pct(0.99),
		Errs: errs.Load(),
	}, wall
}

func main() {
	// Defaults mirror the offline tile-kernel regime (BENCH_kernels.json:
	// dim 128, ~100K rows): queries cost ~1ms, so coalescing overhead is
	// noise and the tile kernels' cache reuse is the signal. Tiny/cheap
	// queries (tens of µs) would measure hand-off overhead, not batching.
	segs := flag.Int("segs", 32, "scan segments")
	rows := flag.Int("rows", 2048, "rows per segment")
	dim := flag.Int("dim", 128, "vector dimensionality")
	k := flag.Int("k", 10, "top-k")
	total := flag.Int("queries", 512, "queries per (concurrency, mode) run")
	quick := flag.Bool("quick", false, "CI smoke sizing: small dataset, few queries")
	out := flag.String("o", "BENCH_batchform.json", "output JSON path")
	flag.Parse()
	if *quick {
		*segs, *rows, *total = 8, 1024, 128
	}

	// Admission stays wide open so high concurrency measures batching, not
	// rejection; worker count keeps the machine default.
	poolOn := exec.NewPool(exec.Config{MaxInflight: 4096, AdmitQueue: 1 << 14})
	poolOff := exec.NewPool(exec.Config{MaxInflight: 4096, AdmitQueue: 1 << 14})
	defer poolOn.Close()
	defer poolOff.Close()
	regOn := obs.NewRegistry()
	on, err := buildCollection(poolOn, regOn, *dim, *segs, *rows, 0)
	if err != nil {
		log.Fatalf("benchbatchform: %v", err)
	}
	defer on.Close()
	off, err := buildCollection(poolOff, obs.NewRegistry(), *dim, *segs, *rows, 1)
	if err != nil {
		log.Fatalf("benchbatchform: %v", err)
	}
	defer off.Close()

	r := rand.New(rand.NewSource(11))
	queries := make([][]float32, 256)
	for i := range queries {
		q := make([]float32, *dim)
		for j := range q {
			q[j] = float32(r.NormFloat64())
		}
		queries[i] = q
	}

	// Warm both paths (page in segments, JIT the pool) outside the clock.
	warm := *total / 4
	if warm > 128 {
		warm = 128
	}
	runLoad(on, queries, 8, warm, *k)
	runLoad(off, queries, 8, warm, *k)

	var rep report
	rep.Benchmark = "batchform-online"
	rep.Environment.CPU = cpuModel()
	rep.Environment.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Environment.Go = runtime.Version()
	rep.Environment.Workload = fmt.Sprintf("%d scan segments × %d rows, dim %d, L2, k=%d, %d queries per run",
		*segs, *rows, *dim, *k, *total)
	rep.TargetSpeedupC64 = 1.2

	// Each (mode, concurrency) cell keeps the best of reps passes: the box
	// this runs on has multi-hundred-ms scheduling stalls (visible as the
	// per-query p99 tail) and a single pass is hostage to whether one
	// lands mid-phase. Best-of-N on BOTH sides is the standard noisy-box
	// treatment and favors neither mode.
	const reps = 3
	for _, c := range []int{8, 64, 256} {
		var batched, perQuery sideStat
		before := scrapeFormer(regOn)
		for i := 0; i < reps; i++ {
			if s, _ := runLoad(on, queries, c, *total, *k); i == 0 || s.QPS > batched.QPS {
				batched = s
			}
			if s, _ := runLoad(off, queries, c, *total, *k); i == 0 || s.QPS > perQuery.QPS {
				perQuery = s
			}
		}
		delta := scrapeFormer(regOn)
		delta.riders -= before.riders
		delta.batches -= before.batches
		delta.batched -= before.batched
		delta.passthrough -= before.passthrough
		for k, v := range before.triggers {
			delta.triggers[k] -= v
		}
		log.Printf("c=%-3d  triggers %v", c, delta.triggers)

		rs := runStat{
			Concurrency: c,
			Queries:     *total,
			PerQuery:    perQuery,
			Batched:     batched,
			Speedup:     batched.QPS / perQuery.QPS,
		}
		if delta.batches > 0 {
			rs.MeanOccupancy = float64(delta.riders) / float64(delta.batches)
		}
		if n := delta.batched + delta.passthrough; n > 0 {
			rs.BatchedShare = float64(delta.batched) / float64(n)
		}
		rep.Runs = append(rep.Runs, rs)
		log.Printf("c=%-3d  per-query %8.0f qps (p50 %6.0fµs p99 %7.0fµs)   batched %8.0f qps (p50 %6.0fµs p99 %7.0fµs)  speedup %.2fx  occupancy %.1f  batched %.0f%%",
			c, perQuery.QPS, perQuery.P50, perQuery.P99, batched.QPS, batched.P50, batched.P99,
			rs.Speedup, rs.MeanOccupancy, 100*rs.BatchedShare)
		if batched.Errs+perQuery.Errs > 0 {
			log.Fatalf("benchbatchform: %d batched / %d per-query searches errored", batched.Errs, perQuery.Errs)
		}
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Fatalf("benchbatchform: %v", err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("benchbatchform: %v", err)
	}
	log.Printf("wrote %s", *out)
}
