package index

import (
	"time"

	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// Metrics aggregates per-index-type build/search telemetry into a
// registry. A nil *Metrics (or one over a nil registry) stays fully
// functional and records nowhere, so callers wire it unconditionally.
type Metrics struct{ reg *obs.Registry }

// NewMetrics returns a Metrics recording into reg.
func NewMetrics(reg *obs.Registry) *Metrics { return &Metrics{reg: reg} }

// ObserveBuild records one index build attempt for the named type.
func (m *Metrics) ObserveBuild(indexType string, d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.reg.Counter("vectordb_index_build_errors_total", "index", indexType).Inc()
		return
	}
	m.reg.Counter("vectordb_index_builds_total", "index", indexType).Inc()
	m.reg.Histogram("vectordb_index_build_seconds", nil, "index", indexType).Observe(d)
}

// Instrument wraps idx so every Search or SearchInto increments the
// per-type search counter and records a latency histogram sample. The
// wrapper preserves the Marshaler capability of the underlying index
// (segment persistence type-asserts it), and re-instrumenting an
// already-wrapped index is a no-op.
func (m *Metrics) Instrument(idx Index) Index {
	if m == nil || idx == nil {
		return idx
	}
	switch idx.(type) {
	case *instrumentedIndex, *instrumentedMarshaler:
		return idx
	}
	w := instrumentedIndex{
		Index:    idx,
		searches: m.reg.Counter("vectordb_index_searches_total", "index", idx.Name()),
		latency:  m.reg.Histogram("vectordb_index_search_seconds", nil, "index", idx.Name()),
	}
	if _, ok := idx.(Marshaler); ok {
		return &instrumentedMarshaler{w}
	}
	return &w
}

type instrumentedIndex struct {
	Index
	searches *obs.Counter
	latency  *obs.Histogram
}

func (w *instrumentedIndex) Search(query []float32, p SearchParams) []topk.Result {
	start := time.Now()
	res := w.Index.Search(query, p)
	w.searches.Inc()
	w.latency.Observe(time.Since(start))
	return res
}

// SearchInto forwards to the wrapped index's heap-through search, counted
// and timed once per probe like Search.
func (w *instrumentedIndex) SearchInto(h *topk.Heap, query []float32, p SearchParams) error {
	start := time.Now()
	err := SearchInto(w.Index, h, query, p)
	w.searches.Inc()
	w.latency.Observe(time.Since(start))
	return err
}

// Unwrap exposes the underlying index, e.g. for capability probes.
func (w *instrumentedIndex) Unwrap() Index { return w.Index }

type instrumentedMarshaler struct{ instrumentedIndex }

func (w *instrumentedMarshaler) MarshalIndex() ([]byte, error) {
	return w.Index.(Marshaler).MarshalIndex()
}
