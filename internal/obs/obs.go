// Package obs is vectordb's observability substrate: lock-cheap atomic
// counters, gauges read at scrape time and fixed-bucket latency histograms
// in a global-free Registry, lightweight span tracing for the query path,
// and a ring-buffer slow-query log. The package is stdlib-only and imports
// nothing else from this repo, so every layer (wal, vec, gpu, query, core,
// cluster, rest) can depend on it without cycles.
//
// All metric handles and the Registry itself are nil-safe: methods on a nil
// *Registry return working-but-unregistered handles, and methods on nil
// handles are no-ops. Instrumented code therefore never needs an "is
// telemetry enabled?" conditional on the hot path.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefLatencyBuckets is the default histogram bucketing: roughly
// exponential from 50µs to 10s, tuned for query/build latencies.
var DefLatencyBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	10 * time.Second,
}

// Histogram is a fixed-bucket duration histogram. Buckets are cumulative
// only at exposition time; Observe touches exactly one bucket plus the
// count and sum, all atomically and without locks.
type Histogram struct {
	bounds  []time.Duration // upper bounds, ascending
	buckets []atomic.Int64  // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

func newHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	b := make([]time.Duration, len(bounds))
	copy(b, bounds)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of observed samples.
//
//lint:allow testonly other packages' tests count what their histograms observed
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// metric families

type metricType int

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. Exactly one of c/h/fn
// is set, matching the family's type (fn may back a counter and backs
// every gauge).
type series struct {
	labels string // canonical rendered label block: "" or `{k="v",...}`
	c      *Counter
	h      *Histogram
	fn     func() int64
}

type family struct {
	name   string
	typ    metricType
	bounds []time.Duration
	series map[string]*series
}

// Registry is a get-or-create namespace of metric families. The same
// (name, labels) pair always resolves to the same handle, so callers may
// either cache handles (hot paths) or re-resolve by name (tests, scrapes).
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	helps map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}, helps: map[string]string{}}
}

// Help sets the HELP text emitted for the named family.
func (r *Registry) Help(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.helps[name] = help
	r.mu.Unlock()
}

// Counter returns the counter for (name, labels), creating it on first use.
// labels alternate key, value and must come in pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.get(name, typeCounter, nil, labels, nil).c
}

// Histogram returns the histogram for (name, labels), creating it on first
// use. bounds applies only at family creation (nil means
// DefLatencyBuckets); later calls inherit the family's bucketing.
func (r *Registry) Histogram(name string, bounds []time.Duration, labels ...string) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	return r.get(name, typeHistogram, bounds, labels, nil).h
}

// CounterFunc registers a counter series whose value is collected from fn
// at scrape time. Re-registering the same (name, labels) replaces fn,
// which lets a rebuilt component (e.g. a reader after a crash) take over
// its series.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	r.get(name, typeCounter, nil, labels, fn)
}

// GaugeFunc registers a gauge series collected from fn at scrape time.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...string) {
	if r == nil {
		return
	}
	r.get(name, typeGauge, nil, labels, fn)
}

// Forget removes every series labelled key=value, and any family it
// empties: a dropped component's scrape-time funcs (and what they reach)
// become garbage, and a later registration starts a fresh series.
func (r *Registry) Forget(key, value string) {
	if r == nil {
		return
	}
	pair := key + `="` + escapeLabelValue(value) + `"`
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.fams {
		for k := range f.series {
			if hasLabelPair(k, pair) {
				delete(f.series, k)
			}
		}
		if len(f.series) == 0 {
			delete(r.fams, name)
		}
	}
}

// hasLabelPair reports whether a rendered label block holds the pair as
// an entry. Keys hold no '=' and values escape their quotes, so an entry
// ends at the first unescaped quote after its `="`.
func hasLabelPair(block, pair string) bool {
	for i := 1; i < len(block); i++ { // i steps over '{' or ','
		start := i
		i += strings.Index(block[i:], `="`) + 2
		for block[i] != '"' {
			if block[i] == '\\' {
				i++
			}
			i++
		}
		i++
		if block[start:i] == pair {
			return true
		}
	}
	return false
}

// get resolves (name, labels) to its series, creating it on first use. A
// non-nil fn becomes the series' scrape-time source, set under r.mu like
// every read of it.
func (r *Registry) get(name string, typ metricType, bounds []time.Duration, labels []string, fn func() int64) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, typ: typ, series: map[string]*series{}}
		if typ == typeHistogram {
			if len(bounds) == 0 {
				bounds = DefLatencyBuckets
			}
			f.bounds = bounds
		}
		r.fams[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %v, requested as %v", name, f.typ, typ))
	}
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		switch typ {
		case typeCounter:
			s.c = &Counter{}
		case typeHistogram:
			s.h = newHistogram(f.bounds)
		}
		f.series[key] = s
	}
	if fn != nil {
		s.fn = fn
	}
	return s
}

// renderLabels canonicalizes a key/value list into a Prometheus label
// block, sorted by key so equal label sets always produce equal strings.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escaping rules for
// label values: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline only (quotes are
// legal in help strings).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
