package obs

import (
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// Stage is one step of a query's read path (Sec. 3–4, 5.2), in pipeline
// order: admission, planning, the filter strategies' phases, the sweep over
// the snapshot's segments and the final merge.
type Stage uint8

const (
	SchedWait   Stage = iota // waiting for a run slot
	BatchForm                // a batch peer waiting for its holder's answer
	Plan                     // choosing the runner
	AttrFilter               // resolving a predicate to rows or a bitmap
	FilterPlan               // pricing the filter strategies
	ExactScan                // strategy A: scoring the qualifying rows
	VectorFirst              // strategy C: the over-fetching vector search
	Verify                   // strategy C: the attribute check
	Partition                // strategy E: one partition
	Segments                 // the per-segment sweep
	IndexSearch              // one segment probed through its index
	SegmentScan              // one segment scanned
	TopkMerge                // folding the partial results
	numStages
)

var stageNames = [numStages]string{
	"sched_wait", "batch_form", "plan", "attr_filter", "filter_plan",
	"exact_scan", "vector_first", "verify", "partition", "segments",
	"index_search", "segment_scan", "topk_merge",
}

func (s Stage) String() string { return stageNames[s] }

// Attr is one fact a query records: trace-wide, or on the stage that
// attrSpecs names.
type Attr uint8

const (
	Collection        Attr = iota // string
	PlanChoice                    // string: the plan= venue or strategy
	PlanEstNs                     // int: the estimate the plan won with
	PlanForced                    // string "true": the plan was not priced
	FilterStrategy                // string: A–E
	FilterMode                    // string: how a pushed bitset is read
	FilterSelectivity             // float: the pushed filter's pass share
	BatchOccupancy                // int: members of the query's batch
	MultiAlgorithm                // string: the multi-vector algorithm
	Admission                     // string: why admission failed
	PlanSegments                  // int, on plan: the snapshot's segments
	Indexed                       // int, on segments: probed through an index
	Scanned                       // int, on segments: scanned
	FilterRows                    // int, on attr_filter: qualifying rows
	Chosen                        // string, on filter_plan: its pick
	EstSelectivity                // float, on filter_plan
	EstNs                         // int, on filter_plan
	numAttrs
)

// attrSpecs names each Attr and the stage it belongs to (numStages: the
// whole query).
var attrSpecs = [numAttrs]struct {
	name  string
	stage Stage
}{
	{"collection", numStages}, {"plan", numStages}, {"plan_est_ns", numStages},
	{"plan_forced", numStages}, {"filter_strategy", numStages},
	{"filter_mode", numStages}, {"filter_selectivity", numStages},
	{"batch_occupancy", numStages}, {"multi_algorithm", numStages},
	{"admission", numStages}, {"segments", Plan}, {"indexed", Segments},
	{"scanned", Segments}, {"rows", AttrFilter}, {"chosen", FilterPlan},
	{"est_selectivity", FilterPlan}, {"est_ns", FilterPlan},
}

// PartAction is what strategy E did with one partition.
type PartAction uint8

const (
	PartNoBounds   PartAction = iota // no bounds on the attribute: skipped
	PartPruned                       // no overlap with the predicate
	PartFullVector                   // fully covered: searched unfiltered
	PartDelegated                    // partly covered: strategy D ran
	numPartActions
)

var partActionNames = [numPartActions]string{"no_bounds", "pruned", "full_vector", "delegated"}

const (
	unset uint8 = iota
	kindString
	kindInt
	kindFloat
)

// value is one Attr's slot; a float keeps its bits in n.
type value struct {
	s    string
	n    int64
	kind uint8
}

// tally is one stage's account. Pool workers add to it with atomics: the
// earliest start (ns after the record began, plus one; 0 = never ran),
// the summed duration and the number of runs. The fields are plain int64
// under sync/atomic functions, not atomic.Int64, because the query log
// copies a finished record by value.
type tally struct {
	first, dur, count int64
}

// QueryRecord is one query's account: a fixed set of stage tallies and
// attribute slots, so recording costs no allocation past the record itself
// and the query log keeps a copy by value. A nil *QueryRecord records
// nothing, so instrumented code calls it unconditionally. The attribute
// setters and Finish belong to the query's own goroutine; Timer.End may run
// on any.
type QueryRecord struct {
	op     string
	begin  time.Time
	dur    time.Duration
	stages [numStages]tally
	attrs  [numAttrs]value
	parts  [numPartActions]int64
}

// NewQueryRecord starts the account of one operation.
func NewQueryRecord(op string) *QueryRecord {
	return &QueryRecord{op: op, begin: time.Now()}
}

// Timer is one run of a stage, from Start to End.
type Timer struct {
	r  *QueryRecord
	s  Stage
	at time.Time
}

// Start begins a run of stage s; the stage's first start is the earliest
// run's.
func (r *QueryRecord) Start(s Stage) Timer {
	if r == nil {
		return Timer{}
	}
	now := time.Now()
	atomic.CompareAndSwapInt64(&r.stages[s].first, 0, int64(now.Sub(r.begin))+1)
	return Timer{r, s, now}
}

// End adds the run to its stage's tally. Call it once.
func (t Timer) End() {
	if t.r == nil {
		return
	}
	st := &t.r.stages[t.s]
	atomic.AddInt64(&st.dur, int64(time.Since(t.at)))
	atomic.AddInt64(&st.count, 1)
}

// SetString records a string attribute; a later value replaces it.
func (r *QueryRecord) SetString(a Attr, v string) {
	if r != nil {
		r.attrs[a] = value{s: v, kind: kindString}
	}
}

// SetInt records an integer attribute.
func (r *QueryRecord) SetInt(a Attr, v int64) {
	if r != nil {
		r.attrs[a] = value{n: v, kind: kindInt}
	}
}

// SetFloat records a fractional attribute, rendered to four places.
func (r *QueryRecord) SetFloat(a Attr, v float64) {
	if r != nil {
		r.attrs[a] = value{n: int64(math.Float64bits(v)), kind: kindFloat}
	}
}

// AddPartition counts one partition strategy E handled as a.
func (r *QueryRecord) AddPartition(a PartAction) {
	if r != nil {
		r.parts[a]++
	}
}

// Finish fixes the record's duration; later calls return it unchanged.
func (r *QueryRecord) Finish() time.Duration {
	if r == nil {
		return 0
	}
	if r.dur == 0 {
		r.dur = time.Since(r.begin)
	}
	return r.dur
}

// Stages returns the names of the stages that ran, in pipeline order.
//
//lint:allow testonly other packages' tests read the stages a query ran through it
func (r *QueryRecord) Stages() []string { return r.Summary().Stages() }

// Attr returns the rendered attribute under key.
//
//lint:allow testonly other packages' tests read a query's attributes through it
func (r *QueryRecord) Attr(key string) (string, bool) { return r.Summary().Attr(key) }

// KV is one rendered attribute.
type KV struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanSummary is the rendered view of one stage: when it first started,
// how long its Count runs took together, and its attributes.
type SpanSummary struct {
	Name     string        `json:"name"`
	Parent   string        `json:"parent,omitempty"`
	StartOff time.Duration `json:"start_offset_ns"`
	Duration time.Duration `json:"duration_ns"`
	Count    int64         `json:"count"`
	Attrs    []KV          `json:"attrs,omitempty"`
}

// TraceSummary is the rendered view of a whole record, safe to retain and
// serialize.
type TraceSummary struct {
	Op       string        `json:"op"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []KV          `json:"attrs,omitempty"`
	Spans    []SpanSummary `json:"spans,omitempty"`
}

// Summary renders the record: one span per stage that ran, in pipeline
// order, except strategy E's partition stage, which renders one span per
// partition (its action; the stage's time split evenly). An unfinished
// record reports its live duration.
func (r *QueryRecord) Summary() TraceSummary {
	if r == nil {
		return TraceSummary{}
	}
	out := TraceSummary{Op: r.op, Start: r.begin, Duration: r.dur, Attrs: r.render(numStages)}
	if r.dur == 0 {
		out.Duration = time.Since(r.begin)
	}
	for s := Stage(0); s < numStages; s++ {
		st := r.stages[s]
		if st.count == 0 {
			continue
		}
		sp := SpanSummary{Name: s.String(), StartOff: time.Duration(st.first - 1), Duration: time.Duration(st.dur), Count: st.count, Attrs: r.render(s)}
		switch s {
		case IndexSearch, SegmentScan:
			sp.Parent = Segments.String()
		case Partition:
			sp.Duration /= time.Duration(st.count)
			sp.Count = 1
			for a, n := range r.parts {
				sp.Attrs = []KV{{"action", partActionNames[a]}}
				for ; n > 0; n-- {
					out.Spans = append(out.Spans, sp)
				}
			}
			continue
		}
		out.Spans = append(out.Spans, sp)
	}
	return out
}

// render formats the attributes set on stage s (numStages: the query's).
func (r *QueryRecord) render(s Stage) []KV {
	var kvs []KV
	for a, v := range r.attrs {
		if v.kind == unset || attrSpecs[a].stage != s {
			continue
		}
		kv := KV{Key: attrSpecs[a].name, Value: v.s}
		switch v.kind {
		case kindInt:
			kv.Value = strconv.FormatInt(v.n, 10)
		case kindFloat:
			kv.Value = strconv.FormatFloat(math.Float64frombits(uint64(v.n)), 'f', 4, 64)
		}
		kvs = append(kvs, kv)
	}
	return kvs
}

// Stages returns the distinct span names in first-appearance order.
func (s TraceSummary) Stages() []string {
	var out []string
	for _, sp := range s.Spans {
		if !slices.Contains(out, sp.Name) {
			out = append(out, sp.Name)
		}
	}
	return out
}

// StageBreakdown sums span durations by stage name.
func (s TraceSummary) StageBreakdown() map[string]time.Duration {
	out := make(map[string]time.Duration, len(s.Spans))
	for _, sp := range s.Spans {
		out[sp.Name] += sp.Duration
	}
	return out
}

// Attr returns the query-wide attribute under key.
func (s TraceSummary) Attr(key string) (string, bool) {
	for _, kv := range s.Attrs {
		if kv.Key == key {
			return kv.Value, true
		}
	}
	return "", false
}
