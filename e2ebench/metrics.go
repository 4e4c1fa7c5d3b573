package main

// metricSpec names one metric the benchmark reports. BENCHMARK.json lists
// the same names, units and directions; a test holds the two together.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: relative worsening that is a regression
	// MedianOnly exempts the metric from the comparer's spread check, as
	// the driver exempts setup_s: set-up time depends on the seed (k-means
	// convergence), so it spreads over seeds while its median repeats.
	MedianOnly bool
}

// endToEndMetrics are what a user of the system sees, per workload, and
// what a later change is held to.
//
// No tail percentile is among them. On mixed.rw the writer is busy about
// 5 % of the time, so p95 sits on the knee between undisturbed and
// disturbed reads: over ten seeds the whole-window p95 spread 0.07 in one
// set of runs and 0.25 in the next, the slice-median p99 the issue defined
// 0.19–0.22 — at or beyond the largest bound a metric may have — and the
// metric list is one list for all workloads. p95_ms and p99_ms are therefore
// diagnostics among the per-layer metrics, like failed_share (0 on every
// workload; the result line's attempted/failed carry it) and write_p50_ms
// (one workload only). Closed-loop qps is clients ÷ mean latency, so a tail
// that grows still moves a gated number.
//
// The timing bounds are the largest allowed (0.25) because this shared
// 2-core host drifts: probe.c1's median qps moved 16 % between two sets of
// runs of the same commit taken an hour apart.
var endToEndMetrics = []metricSpec{
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "recall_at_k", Unit: "fraction", Better: "higher", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, MedianOnly: true},
}

// perLayerMetrics are single layers' numbers: counter deltas across the
// measured window, and times from the traced pass.
var perLayerMetrics = []metricSpec{
	{Name: "client.self_us", Unit: "us", Better: "lower"},
	{Name: "rest.self_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "query.self_us", Unit: "us", Better: "lower"},
	{Name: "core.segments_per_query", Unit: "count", Better: "lower"},
	{Name: "core.heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "batchform.wait_us", Unit: "us", Better: "lower"},
	{Name: "batchform.occupancy", Unit: "count", Better: "higher"},
	{Name: "batchform.batched_share", Unit: "fraction", Better: "higher"},
	{Name: "exec.task_wait_us", Unit: "us", Better: "lower"},
	{Name: "exec.tasks_per_query", Unit: "count", Better: "lower"},
	{Name: "exec.rejected", Unit: "count", Better: "lower"},
	{Name: "exec.empty_map_us", Unit: "us", Better: "lower"},
	{Name: "plan.place_us", Unit: "us", Better: "lower"},
	{Name: "plan.decisions", Unit: "count", Better: "lower"},
	{Name: "plan.mispredicts", Unit: "count", Better: "lower"},
	{Name: "index.search_us", Unit: "us", Better: "lower"},
	{Name: "index.searches", Unit: "count", Better: "lower"},
	{Name: "vec.kernel_us", Unit: "us", Better: "lower"},
	{Name: "vec.gb_per_s", Unit: "GB/s", Better: "higher"},
	{Name: "vec.batch_dispatch", Unit: "count", Better: "lower"},
	{Name: "topk.merge_us", Unit: "us", Better: "lower"},
	{Name: "colstore.compile_us", Unit: "us", Better: "lower"},
	{Name: "filter.selectivity", Unit: "fraction", Better: "higher"},
	{Name: "blockcache.hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "blockcache.evictions_per_query", Unit: "count", Better: "lower"},
	{Name: "tier.promotes", Unit: "count", Better: "lower"},
	{Name: "tier.demotes", Unit: "count", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "core.flushes", Unit: "count", Better: "lower"},
	{Name: "core.merges", Unit: "count", Better: "lower"},
	{Name: "index.builds", Unit: "count", Better: "lower"},
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "cluster.router_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.reader_sum_us", Unit: "us", Better: "lower"},
	{Name: "cluster.reader_cache_hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "cluster.segment_loads", Unit: "count", Better: "lower"},
	{Name: "p95_ms", Unit: "ms", Better: "lower"},
	{Name: "p99_ms", Unit: "ms", Better: "lower"},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_share", Unit: "fraction", Better: "lower"},
	{Name: "gen_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.root_us", Unit: "us", Better: "lower"},
	{Name: "trace.residual_share", Unit: "fraction", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower"},
}
