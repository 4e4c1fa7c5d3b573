package core

import (
	"context"
	"time"

	"vectordb/internal/exec"
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

	queries      [numQueryKinds]*obs.Counter // vectordb_query_total, by type
	queryLatency *obs.Histogram              // end-to-end query latency, all query types

	idx *index.Metrics // per-index-type build/search telemetry
}

func newColMetrics(reg *obs.Registry, name string) *colMetrics {
	m := &colMetrics{
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
	for k := range m.queries {
		m.queries[k] = reg.Counter("vectordb_query_total", "collection", name, "type", queryKind(k).String())
	}
	return m
}

// beginQuery counts one query of the given kind and starts its record.
// When the caller did not supply a record and the collection has a query
// log, one is created here so the query is still captured. The returned
// finish func samples the latency histogram and copies the record into
// the query log — caller-supplied records included. trp points at the
// options' Trace field so a created record flows down the query path.
func (c *Collection) beginQuery(kind queryKind, trp **obs.QueryRecord) func() {
	c.met.queries[kind].Inc()
	start := time.Now()
	if *trp == nil && c.qlog != nil {
		*trp = obs.NewQueryRecord(kind.String())
		(*trp).SetString(obs.Collection, c.Name)
	}
	tr := *trp
	return func() {
		c.met.queryLatency.Observe(time.Since(start))
		c.qlog.Add(tr)
	}
}

// admit takes a run slot on the shared execution pool for one top-level
// query, recording the wait as the sched_wait stage of the query's record. A
// batchable query (it non-nil) queues under its batch key, so a freed slot
// may take it along as a peer instead (Slot.Joined); once granted a slot it
// is counted on its vectordb_batchform_* path. Admission is taken once per
// query, in Query; everything the query does downstream runs under that
// single slot.
func (c *Collection) admit(ctx context.Context, tr *obs.QueryRecord, it *batchItem, key any) (exec.Slot, error) {
	var val any
	if it != nil {
		val = it
		c.form.pending.Add(1)
		defer c.form.pending.Add(-1)
	}
	sp := tr.Start(obs.SchedWait)
	slot, err := c.pool.Admit(ctx, key, val)
	sp.End()
	if err != nil && tr != nil {
		tr.SetString(obs.Admission, err.Error())
	} else if it != nil && !slot.Joined {
		c.form.granted(it, slot.Peers)
	}
	return slot, err
}
