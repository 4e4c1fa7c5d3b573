package core

import (
	"context"
	"time"

	"vectordb/internal/index"
	"vectordb/internal/obs"
)

// colMetrics is a collection's resolved metric handles. Resolving them
// once at collection creation keeps the hot paths free of registry map
// lookups; with a nil registry every handle still works, it just is not
// scraped anywhere.
type colMetrics struct {
	reg  *obs.Registry
	name string

	insertRows *obs.Counter // entities acknowledged by Insert
	deleteRows *obs.Counter // ids acknowledged by Delete

	flushes      *obs.Counter // flushLocked invocations
	flushErrs    *obs.Counter // segment-build failures during flush
	segBuilt     *obs.Counter // immutable segments created (flush + merge)
	merges       *obs.Counter // tiered merges performed
	mergeDropped *obs.Counter // tombstoned rows physically dropped by merges
	segGC        *obs.Counter // obsolete segments garbage-collected

	segIndex *obs.Counter // per-query segments served by an index
	segScan  *obs.Counter // per-query segments served by brute-force scan

	tierSealed         *obs.Counter // segments written as extent files at seal
	tierIdxSealed      *obs.Counter // IVF index payloads externalized to extent files
	tierPromotes       *obs.Counter // cold→mapped transitions (incl. fresh maps)
	tierPromoteRetries *obs.Counter // store fetch attempts beyond the first
	tierPromoteErrs    *obs.Counter // promotions that exhausted their retries
	tierDemotes        *obs.Counter // mapped→cold transitions

	queryLatency *obs.Histogram // end-to-end query latency, all query types

	idx *index.Metrics // per-index-type build/search telemetry
}

func newColMetrics(reg *obs.Registry, name string) *colMetrics {
	return &colMetrics{
		reg:          reg,
		name:         name,
		insertRows:   reg.Counter("vectordb_insert_rows_total", "collection", name),
		deleteRows:   reg.Counter("vectordb_delete_rows_total", "collection", name),
		flushes:      reg.Counter("vectordb_flush_total", "collection", name),
		flushErrs:    reg.Counter("vectordb_flush_errors_total", "collection", name),
		segBuilt:     reg.Counter("vectordb_segments_built_total", "collection", name),
		merges:       reg.Counter("vectordb_merge_total", "collection", name),
		mergeDropped: reg.Counter("vectordb_merge_rows_dropped_total", "collection", name),
		segGC:        reg.Counter("vectordb_segment_gc_total", "collection", name),
		segIndex:     reg.Counter("vectordb_query_segments_total", "collection", name, "path", "index"),
		segScan:      reg.Counter("vectordb_query_segments_total", "collection", name, "path", "scan"),
		tierSealed:   reg.Counter("vectordb_tier_sealed_total", "collection", name),
		tierIdxSealed: reg.Counter(
			"vectordb_tier_index_sealed_total", "collection", name),
		tierPromotes: reg.Counter("vectordb_tier_promote_total", "collection", name),
		tierPromoteRetries: reg.Counter(
			"vectordb_tier_promote_retries_total", "collection", name),
		tierPromoteErrs: reg.Counter("vectordb_tier_promote_errors_total", "collection", name),
		tierDemotes:     reg.Counter("vectordb_tier_demote_total", "collection", name),
		queryLatency:    reg.Histogram("vectordb_query_latency_seconds", nil, "collection", name),
		idx:             index.NewMetrics(reg),
	}
}

// query returns the per-type query counter (type is one of the Query kinds).
func (m *colMetrics) query(kind string) *obs.Counter {
	return m.reg.Counter("vectordb_query_total", "collection", m.name, "type", kind)
}

// beginQuery records one query of the given kind and starts its trace.
// When the caller did not supply a trace and the collection has a query
// log, a trace is created here so the query is still captured. The
// returned finish func samples the latency histogram and finalizes the
// trace into the query log — caller-supplied traces included (Finish is
// idempotent, so the caller finishing again is harmless). trp points at
// the options' Trace field so a created trace flows down the query path.
func (c *Collection) beginQuery(kind string, trp **obs.Trace) func() {
	c.met.query(kind).Inc()
	start := time.Now()
	if *trp == nil && c.qlog != nil {
		t := obs.NewTrace(kind)
		t.Annotate("collection", c.Name)
		*trp = t
	}
	tr := *trp
	return func() {
		c.met.queryLatency.Observe(time.Since(start))
		if tr != nil && c.qlog != nil {
			tr.Finish()
			c.qlog.Record(tr)
		}
	}
}

// admit reserves an in-flight slot on the shared execution pool for one
// top-level query, recording the wait as a sched_wait span on the query's
// trace. Admission is taken once per query, in execute; everything the
// query does downstream runs under that single slot.
func (c *Collection) admit(ctx context.Context, tr *obs.Trace) (release func(), err error) {
	sp := tr.StartSpan("sched_wait")
	release, err = c.pool.Admit(ctx)
	sp.End()
	if err != nil {
		tr.Annotate("admission", err.Error())
	}
	return release, err
}

// observeIndexBuild records a segment index build and, on success, wraps
// the installed index so its searches are counted per type. The wrapper
// preserves index.Marshaler, so persistIndex keeps working on wrapped
// indexes.
func (c *Collection) observeIndexBuild(seg *Segment, field int, indexType string, d time.Duration, err error) {
	c.met.idx.ObserveBuild(indexType, d, err)
	if err != nil {
		return
	}
	if idx := seg.Index(field); idx != nil {
		seg.SetIndex(field, c.met.idx.Instrument(idx))
	}
}
