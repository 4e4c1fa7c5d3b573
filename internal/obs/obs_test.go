package obs

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // negative deltas ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(3)
	if nilC.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "k", "1", "z", "2")
	b := r.Counter("x_total", "z", "2", "k", "1") // label order canonicalized
	if a != b {
		t.Fatal("same (name, labels) must return the same handle")
	}
	if c := r.Counter("x_total", "k", "1", "z", "3"); c == a {
		t.Fatal("different labels must return a different handle")
	}
	if r.Counter("y_total") != r.Counter("y_total") {
		t.Fatal("unlabeled series must be shared too")
	}
}

func TestRegistryTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on counter/gauge type mismatch")
		}
	}()
	r.GaugeFunc("m_total", func() int64 { return 0 })
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd label list")
		}
	}()
	r.Counter("m_total", "key_without_value")
}

// TestForgetDropsOneLabelPair: Forget removes exactly the series that
// carry the pair as a label of their own, empty families go with them,
// and a later registration under the same labels starts fresh.
func TestForgetDropsOneLabelPair(t *testing.T) {
	r := NewRegistry()
	r.Counter("vectordb_f_total", "collection", "a").Add(5)
	r.Counter("vectordb_f_total", "collection", "b").Add(7)
	r.GaugeFunc("vectordb_f_rows", func() int64 { return 9 }, "collection", "a")
	r.Histogram("vectordb_f_seconds", nil, "collection", "a", "op", "x").Observe(time.Millisecond)
	// Labels whose values only contain the pair's text are not the pair.
	r.Counter("vectordb_f_total", "note", `collection="a"`).Inc()
	r.Counter("vectordb_f_total", "collection", "ab").Inc()
	r.Counter("vectordb_f_total", "collection", `a"`).Inc()
	r.Forget("collection", "a")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, gone := range []string{`collection="a"}`, `collection="a",`, "vectordb_f_rows", "vectordb_f_seconds"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition still holds %q:\n%s", gone, out)
		}
	}
	for _, kept := range []string{
		`vectordb_f_total{collection="b"} 7`,
		`vectordb_f_total{note="collection=\"a\""} 1`,
		`vectordb_f_total{collection="ab"} 1`,
		`vectordb_f_total{collection="a\""} 1`,
	} {
		if !strings.Contains(out, kept) {
			t.Errorf("exposition lost %q:\n%s", kept, out)
		}
	}
	if got := r.Counter("vectordb_f_total", "collection", "a").Value(); got != 0 {
		t.Errorf("re-registered counter starts at %d, want 0", got)
	}
	var nilReg *Registry
	nilReg.Forget("collection", "a")
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]time.Duration{10 * time.Millisecond, time.Millisecond}) // unsorted on purpose
	h.Observe(500 * time.Microsecond)                                           // ≤ 1ms
	h.Observe(time.Millisecond)                                                 // boundary: ≤ 1ms
	h.Observe(5 * time.Millisecond)                                             // ≤ 10ms
	h.Observe(time.Second)                                                      // +Inf
	h.Observe(-time.Second)                                                     // clamped to 0 → ≤ 1ms
	if got := h.buckets[0].Load(); got != 3 {
		t.Fatalf("bucket ≤1ms = %d, want 3", got)
	}
	if got := h.buckets[1].Load(); got != 1 {
		t.Fatalf("bucket ≤10ms = %d, want 1", got)
	}
	if got := h.buckets[2].Load(); got != 1 {
		t.Fatalf("bucket +Inf = %d, want 1", got)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	want := 500*time.Microsecond + time.Millisecond + 5*time.Millisecond + time.Second
	if h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	if h.bounds[0] != time.Millisecond {
		t.Fatal("bounds must be sorted ascending")
	}
}

func TestDefaultBucketsUsedWhenNil(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", nil)
	if len(h.bounds) != len(DefLatencyBuckets) {
		t.Fatalf("default bounds: got %d, want %d", len(h.bounds), len(DefLatencyBuckets))
	}
	// Bounds fixed at family creation; later calls inherit them.
	h2 := r.Histogram("lat_seconds", []time.Duration{time.Hour})
	if h2 != h {
		t.Fatal("same series must return same histogram")
	}
}

func TestNilRegistryReturnsWorkingHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("a_total", "l", "v")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("nil-registry counter must still count")
	}
	h := r.Histogram("c_seconds", nil)
	h.Observe(time.Millisecond)
	if h.Count() != 1 {
		t.Fatal("nil-registry histogram must still observe")
	}
	r.CounterFunc("d_total", func() int64 { return 1 })
	r.GaugeFunc("e", func() int64 { return 1 })
	r.Help("a_total", "help")
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal("nil-registry scrape must be a no-op")
	}
}

func TestTraceSpansAndAttrs(t *testing.T) {
	r := NewQueryRecord("vector")
	r.SetString(PlanChoice, "flat_cpu")
	r.SetString(PlanChoice, "ivf_cpu") // last wins
	r.SetInt(PlanEstNs, 10)
	r.SetFloat(FilterSelectivity, 0.25)
	r.SetInt(Indexed, 2)

	merge := r.Start(TopkMerge) // started first, listed last: pipeline order
	segs := r.Start(Segments)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // pool workers add to one stage at once
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := r.Start(IndexSearch)
			time.Sleep(time.Microsecond)
			sp.End()
		}()
	}
	wg.Wait()
	segs.End()
	merge.End()

	d1 := r.Finish()
	d2 := r.Finish()
	if d1 != d2 || d1 <= 0 {
		t.Fatalf("finish must be idempotent and positive: %v vs %v", d1, d2)
	}
	for key, want := range map[string]string{"plan": "ivf_cpu", "plan_est_ns": "10", "filter_selectivity": "0.2500"} {
		if v, ok := r.Attr(key); !ok || v != want {
			t.Fatalf("attr %s = %q, %v; want %q", key, v, ok, want)
		}
	}
	if _, ok := r.Attr("indexed"); ok {
		t.Fatal("a stage attribute is not a query attribute")
	}
	if _, ok := r.Attr("absent"); ok {
		t.Fatal("absent attr must report !ok")
	}

	s := r.Summary()
	if s.Op != "vector" || s.Duration != d1 {
		t.Fatalf("summary op/duration mismatch: %+v", s)
	}
	if got, want := s.Stages(), []string{"segments", "index_search", "topk_merge"}; !slices.Equal(got, want) {
		t.Fatalf("stages = %v, want %v", got, want)
	}
	seg, idx, top := s.Spans[0], s.Spans[1], s.Spans[2]
	if idx.Parent != "segments" || idx.Count != 4 || seg.Count != 1 {
		t.Fatalf("index_search parent %q count %d, segments count %d", idx.Parent, idx.Count, seg.Count)
	}
	if top.StartOff > seg.StartOff || seg.StartOff > idx.StartOff {
		t.Fatalf("first starts: topk_merge %v, segments %v, index_search %v", top.StartOff, seg.StartOff, idx.StartOff)
	}
	if !slices.Equal(seg.Attrs, []KV{{"indexed", "2"}}) {
		t.Fatalf("segments attrs = %v", seg.Attrs)
	}
	if bd := s.StageBreakdown(); bd["index_search"] < 4*time.Microsecond {
		t.Fatalf("breakdown must sum the stage's runs: %v", bd)
	}
}

// TestPartitionRendersPerPartition: strategy E's partition stage renders
// one span per partition, each naming its action.
func TestPartitionRendersPerPartition(t *testing.T) {
	r := NewQueryRecord("filtered")
	for _, a := range []PartAction{PartPruned, PartDelegated, PartPruned, PartFullVector} {
		sp := r.Start(Partition)
		r.AddPartition(a)
		sp.End()
	}
	actions := map[string]int{}
	for _, sp := range r.Summary().Spans {
		if sp.Name == "partition" && len(sp.Attrs) == 1 && sp.Attrs[0].Key == "action" {
			actions[sp.Attrs[0].Value]++
		}
	}
	if want := map[string]int{"pruned": 2, "delegated": 1, "full_vector": 1}; !maps.Equal(actions, want) {
		t.Fatalf("partition actions %v, want %v", actions, want)
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var r *QueryRecord
	r.Start(Plan).End()
	r.SetString(PlanChoice, "b")
	r.SetInt(PlanEstNs, 1)
	r.SetFloat(FilterSelectivity, 1)
	r.AddPartition(PartPruned)
	if _, ok := r.Attr("plan"); ok {
		t.Fatal("nil record has no attrs")
	}
	if r.Finish() != 0 || len(r.Stages()) != 0 {
		t.Fatal("nil record must return zero values")
	}
	if sum := r.Summary(); sum.Op != "" {
		t.Fatal("nil record summary must be zero")
	}
}

func TestTraceLiveDuration(t *testing.T) {
	r := NewQueryRecord("op")
	time.Sleep(time.Millisecond)
	if r.Summary().Duration <= 0 {
		t.Fatal("open record summary must report live duration")
	}
}

// timed is a finished record of op that spent d in one segment scan.
func timed(op string, d time.Duration) *QueryRecord {
	r := &QueryRecord{op: op, dur: d}
	r.stages[SegmentScan] = tally{first: 1, dur: int64(d), count: 1}
	return r
}

func TestQueryLogRingsAndSlowLog(t *testing.T) {
	l := NewQueryLog(3, 2, 10*time.Millisecond)
	l.Add(timed("q1", time.Millisecond))
	l.Add(timed("q2", 20*time.Millisecond))
	l.Add(timed("q3", time.Millisecond))
	l.Add(timed("q4", 30*time.Millisecond)) // evicts q1 from recent
	l.Add(timed("q5", 40*time.Millisecond)) // evicts slow q2

	recent := l.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent len = %d, want 3", len(recent))
	}
	if recent[0].Op != "q5" || recent[1].Op != "q4" || recent[2].Op != "q3" {
		t.Fatalf("recent order: %s %s %s", recent[0].Op, recent[1].Op, recent[2].Op)
	}
	slow := l.Slow()
	if len(slow) != 2 {
		t.Fatalf("slow len = %d, want 2", len(slow))
	}
	if slow[0].Op != "q5" || slow[1].Op != "q4" {
		t.Fatalf("slow order: %s %s", slow[0].Op, slow[1].Op)
	}
	if slow[0].Breakdown["segment_scan"] != 40*time.Millisecond {
		t.Fatalf("slow breakdown = %v", slow[0].Breakdown)
	}
	if l.Total() != 5 || l.SlowTotal() != 3 {
		t.Fatalf("total = %d slow = %d", l.Total(), l.SlowTotal())
	}
}

func TestQueryLogThresholdAndNil(t *testing.T) {
	l := NewQueryLog(0, 0, 0) // defaults; slow log disabled
	r := NewQueryRecord("op")
	l.Add(r)
	l.Add(nil)
	if len(l.Recent()) != 1 || len(l.Slow()) != 0 {
		t.Fatalf("recent=%d slow=%d", len(l.Recent()), len(l.Slow()))
	}
	if r.Summary().Duration <= 0 {
		t.Fatal("adding a record must finish it")
	}

	var nilLog *QueryLog
	nilLog.Add(r)
	if nilLog.Recent() != nil || nilLog.Slow() != nil || nilLog.Total() != 0 || nilLog.SlowTotal() != 0 {
		t.Fatal("nil query log must be inert")
	}
}
