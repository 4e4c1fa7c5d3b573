package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"vectordb/e2ebench/benchkit"
)

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload: what the results file holds per line
// and what -compare reads back.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Hash      string            `json:"stream_hash"`
	Env       benchkit.Env      `json:"env"`
	Window    float64           `json:"window_s"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer"`
	Info      map[string]string `json:"info,omitempty"` // labelled counters, sample counts
}

// runConfig is how one invocation runs its workloads.
type runConfig struct {
	seed     int64
	window   time.Duration
	warm     time.Duration
	setups   int  // set-ups per run; setup_s is their median
	trace    bool // add the traced pass
	traced   int  // requests the traced pass replays
	clients  int  // N
	tmp      string
	traceOut string
	env      benchkit.Env
}

// failures collects what went wrong during a loop without stopping it.
type failures struct {
	mu    sync.Mutex
	first error
	count int
}

func (f *failures) add(err error) {
	f.mu.Lock()
	if f.first == nil {
		f.first = err
	}
	f.count++
	f.mu.Unlock()
}

// setUp brings up one target for w; instance numbers the tier directory.
func setUp(w Workload, in *inputs, cfg runConfig, conns, instance int, opt serverOptions) (target, time.Duration, error) {
	if w.Cluster {
		return setupCluster(w, in)
	}
	if w.CacheDiv > 0 {
		opt.tierDir = filepath.Join(cfg.tmp, fmt.Sprintf("tier-%s-%d", w.Name, instance))
		opt.cacheBytes = int64(w.Rows) * int64(w.Dim) * 4 / w.CacheDiv
	}
	return setupREST(w, in, opt, conns)
}

// runWorkload measures one workload: set-up (cfg.setups times, the last
// kept) → recall on the quiesced collection → warm-up on the same stream,
// discarded → GC → the measured window with tracing off → optionally the
// traced pass on a second, one-worker instance.
func runWorkload(w Workload, cfg runConfig) (*Result, error) {
	in := generate(w, cfg.seed, cfg.warm, cfg.window)
	res := &Result{
		Workload: w.Name, Seed: cfg.seed, Hash: in.hash, Env: cfg.env,
		Window:   cfg.window.Seconds(),
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}, Info: map[string]string{},
	}

	readers := cfg.clients
	if w.Clients > 0 {
		readers = w.Clients
	}
	if w.OpenLoop {
		readers = max(1, cfg.clients-1)
	}
	conns := readers
	if w.Writer != nil {
		conns++ // the writer's own connection is the last one
	}

	var t target
	var setupSecs []float64
	for i := 0; i < cfg.setups; i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
		}
		var d time.Duration
		var err error
		if t, d, err = setUp(w, in, cfg, conns, i, serverOptions{}); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupSecs = append(setupSecs, d.Seconds())
	}
	defer func() {
		if t != nil {
			t.close()
		}
	}()
	res.EndToEnd["setup_s"] = Metric{benchkit.Median(setupSecs), "s"}
	res.Info["setup_s_runs"] = fmt.Sprint(setupSecs)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.PerLayer["core.heap_mb"] = Metric{float64(ms.HeapInuse) / (1 << 20), "MiB"}

	recall, err := recallAtK(t, w, in)
	if err != nil {
		return nil, err
	}
	res.EndToEnd["recall_at_k"] = Metric{recall, "fraction"}
	if recall < w.RecallFloor {
		res.Problems = append(res.Problems, fmt.Sprintf("recall_at_k %.4f below floor %.4f", recall, w.RecallFloor))
	}

	// Warm-up and window run the same stream back to back.
	var fails failures
	ctx := context.Background()
	doSearch := func(conn, seq int) error {
		req := in.searches[seq%len(in.searches)]
		hits, err := t.search(conn, w, req)
		if err == nil {
			err = checkHits(hits, w.K, w.Filter, req, in.attrs)
		}
		if err != nil {
			fails.add(fmt.Errorf("search %d: %w", seq, err))
		}
		return err
	}
	var writeFails failures
	writeLoop := func(due []time.Duration, first int) []benchkit.Sample {
		rt := t.(*restTarget)
		return benchkit.OpenLoop(ctx, benchkit.WallClock{}, due, 1, func(_, i int) error {
			err := rt.write(conns-1, w, in.writes[first+i])
			if err != nil {
				writeFails.add(fmt.Errorf("write tick %d: %w", first+i, err))
			}
			return err
		})
	}
	// loop runs searches (and the writer beside them) for one phase.
	loop := func(window time.Duration, due, writeDue []time.Duration, first, firstWrite int) (reads, writes []benchkit.Sample, next int) {
		var wg sync.WaitGroup
		if w.Writer != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				writes = writeLoop(writeDue, firstWrite)
			}()
		}
		if w.OpenLoop {
			reads = benchkit.OpenLoop(ctx, benchkit.WallClock{}, due, readers, func(c, i int) error { return doSearch(c, first+i) })
			next = first + len(due)
		} else {
			reads, next = benchkit.ClosedLoop(ctx, benchkit.WallClock{}, readers, window, first, doSearch)
		}
		wg.Wait()
		return reads, writes, next
	}

	_, _, next := loop(cfg.warm, in.warmDue, in.warmWriteDue, 0, 0)
	warmFailed := fails.count
	runtime.GC()
	before, err := t.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	reads, writes, _ := loop(cfg.window, in.runDue, in.runWriteDue, next, len(in.warmWriteDue))
	after, err := t.scrape()
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}

	endToEnd(res, reads, cfg.window)
	res.Failed += warmFailed // a failure during warm-up is still a failure
	if fails.first != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("%d searches failed, first: %v", fails.count, fails.first))
	}
	if writeFails.first != nil {
		res.Problems = append(res.Problems, fmt.Sprintf("%d writer ticks failed, first: %v", writeFails.count, writeFails.first))
	}
	counters(res, w, benchkit.Delta{Before: before, After: after}, len(reads), writes)

	if cfg.trace {
		if err := t.close(); err != nil {
			return nil, err
		}
		t = nil
		if err := tracedPass(res, w, in, cfg); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// endToEnd fills the metrics a user of the system would see from the
// window's search samples.
func endToEnd(res *Result, reads []benchkit.Sample, window time.Duration) {
	done := 0
	for _, s := range reads {
		switch {
		case s.Failed:
			res.Failed++
		case s.Due+s.Latency <= window:
			done++
		}
	}
	res.Attempted = len(reads)
	ms := benchkit.Millis(reads)
	res.EndToEnd["qps"] = Metric{float64(done) / window.Seconds(), "1/s"}
	res.EndToEnd["p50_ms"] = Metric{benchkit.Percentile(ms, 50), "ms"}
	res.PerLayer["p95_ms"] = Metric{benchkit.Percentile(ms, 95), "ms"}
	res.PerLayer["p99_ms"] = Metric{benchkit.SliceMedian(reads, window, sliceCount, 99), "ms"}

	// Diagnostics beside them: the highest percentile the sample supports,
	// and how late the open-loop generator itself ran.
	tail := benchkit.HighestTail(len(ms))
	res.Info["tail"] = fmt.Sprintf("p%g=%.4fms over %d samples", tail, benchkit.Percentile(ms, tail), len(ms))
	lag := make([]float64, 0, len(reads))
	for _, s := range reads {
		lag = append(lag, float64(s.Lag)/float64(time.Millisecond))
	}
	res.PerLayer["gen_lag_ms"] = Metric{benchkit.PercentileOf(lag, 99), "ms"}
	res.PerLayer["failed_share"] = Metric{float64(res.Failed) / float64(max(1, res.Attempted)), "fraction"}
}

// counters fills the per-layer metrics that are deltas of the program's own
// /metrics series across the window. queries is the number of searches the
// window attempted, the denominator of every per-query ratio.
func counters(res *Result, w Workload, d benchkit.Delta, queries int, writes []benchkit.Sample) {
	q := float64(max(1, queries))
	us := func(seconds float64) float64 { return seconds * 1e6 }
	pl := res.PerLayer

	pl["core.segments_per_query"] = Metric{d.Sum("vectordb_query_segments_total") / q, "count"}

	formed := d.Sum("vectordb_batchform_batches_total")
	pl["batchform.wait_us"] = Metric{us(d.HistMean("vectordb_batchform_wait_seconds")), "us"}
	pl["batchform.occupancy"] = Metric{ratio(d.Sum("vectordb_batchform_occupancy_total"), formed), "count"}
	pl["batchform.batched_share"] = Metric{d.Sum("vectordb_batchform_queries_total", "path", "batched") / q, "fraction"}

	pl["exec.task_wait_us"] = Metric{us(d.HistMean("vectordb_exec_task_wait_seconds")), "us"}
	pl["exec.tasks_per_query"] = Metric{d.Sum("vectordb_exec_tasks_total") / q, "count"}
	pl["exec.rejected"] = Metric{d.Sum("vectordb_exec_rejected_total"), "count"}

	pl["plan.decisions"] = Metric{d.Sum("vectordb_plan_decisions_total"), "count"}
	pl["plan.mispredicts"] = Metric{d.Sum("vectordb_plan_mispredict_total"), "count"}
	res.Info["plan.decisions"] = d.ByLabel("vectordb_plan_decisions_total", "decision")

	pl["index.searches"] = Metric{d.Sum("vectordb_index_searches_total"), "count"}
	pl["vec.batch_dispatch"] = Metric{d.Sum("vectordb_simd_batch_dispatch_total"), "count"}

	hits, misses := d.Sum("vectordb_blockcache_hits_total"), d.Sum("vectordb_blockcache_misses_total")
	pl["blockcache.hit_rate"] = Metric{ratio(hits, hits+misses), "fraction"}
	pl["blockcache.evictions_per_query"] = Metric{d.Sum("vectordb_blockcache_evictions_total") / q, "count"}
	pl["tier.promotes"] = Metric{d.Sum("vectordb_tier_promote_total"), "count"}
	pl["tier.demotes"] = Metric{d.Sum("vectordb_tier_demote_total"), "count"}

	pl["wal.appends"] = Metric{d.Sum("vectordb_wal_appends_total"), "count"}
	pl["core.flushes"] = Metric{d.Sum("vectordb_flush_total"), "count"}
	pl["core.merges"] = Metric{d.Sum("vectordb_merge_total"), "count"}
	pl["index.builds"] = Metric{d.Sum("vectordb_index_builds_total"), "count"}
	pl["index.build_s"] = Metric{d.Sum("vectordb_index_build_seconds_sum"), "s"}

	rh, rm := d.Sum("vectordb_reader_cache_hits_total"), d.Sum("vectordb_reader_cache_misses_total")
	pl["cluster.reader_cache_hit_rate"] = Metric{ratio(rh, rh+rm), "fraction"}
	pl["cluster.segment_loads"] = Metric{d.Sum("vectordb_reader_segment_loads_total"), "count"}

	pl["write_p50_ms"] = Metric{benchkit.Percentile(benchkit.Millis(writes), 50), "ms"}
	if w.Writer != nil {
		res.Info["writer_ticks"] = fmt.Sprint(len(writes))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// buildDir is where everything the benchmark writes goes, relative to the
// directory it was started in: the checkout's root under run.sh.
const buildDir = ".bench_build"

// scratchDir makes the run's private directory (tier extent files); the
// caller removes it.
func scratchDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "run-")
}
