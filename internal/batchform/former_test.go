package batchform

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// testRunner delivers a per-member result (ID = the member's query value)
// to every live item and records each batch it ran. A non-nil gate blocks
// the first batch inside Run until it is closed, after signalling started.
type testRunner struct {
	mu      sync.Mutex
	batches [][]*Item
	ctxErrs []error // joined-ctx state observed at run time

	gate    chan struct{}
	started chan struct{}
	once    sync.Once
}

func (r *testRunner) run(ctx context.Context, key Key, items []*Item) {
	r.mu.Lock()
	r.batches = append(r.batches, items)
	r.ctxErrs = append(r.ctxErrs, ctx.Err())
	r.mu.Unlock()
	if r.gate != nil {
		r.once.Do(func() {
			close(r.started)
			<-r.gate
		})
	}
	for _, it := range items {
		if it.Live() {
			it.Deliver([]topk.Result{{ID: int64(it.Query()[0])}}, nil)
		}
	}
}

// sizes returns the occupancy of every batch run so far, in run order.
func (r *testRunner) sizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.batches))
	for i, b := range r.batches {
		out[i] = len(b)
	}
	return out
}

// spin yields (never sleeps) until cond holds, failing the test if it
// never does.
func spin(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1<<22; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("%s never happened", what)
}

// held returns the number of taken run slots.
func (f *Former) held() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.busy
}

// newTestFormer builds a Former and checks, once the test is done, that it
// ends with no slot held and nothing parked — whatever path each query
// took, every slot must come back.
func newTestFormer(t *testing.T, cfg Config) *Former {
	t.Helper()
	f := New(cfg)
	t.Cleanup(func() {
		spin(t, "every slot returned", func() bool { return f.held() == 0 })
		if n := f.Pending(); n != 0 {
			t.Errorf("%d queries still parked at the end", n)
		}
	})
	return f
}

type submitResult struct {
	res []topk.Result
	occ int
	err error
}

// soloSentinel is what the per-query path answers in these tests, so a
// result tells which path a query took.
const soloSentinel = -1

func solo() ([]topk.Result, error) { return []topk.Result{{ID: soloSentinel}}, nil }

// submitAsync runs one Submit on its own goroutine and returns the channel
// its outcome lands on.
func submitAsync(ctx context.Context, f *Former, key Key, q float32) chan submitResult {
	ch := make(chan submitResult, 1)
	go func() {
		res, occ, err := f.Submit(ctx, key, []float32{q}, nil, solo)
		ch <- submitResult{res, occ, err}
	}()
	return ch
}

// park submits one query and waits until it is parked.
func park(t *testing.T, ctx context.Context, f *Former, key Key, q float32) chan submitResult {
	t.Helper()
	want := f.Pending() + 1
	ch := submitAsync(ctx, f, key, q)
	spin(t, "query parked", func() bool { return f.Pending() == want })
	return ch
}

// holdSlots takes every slot with solo queries that block until the
// returned function is called, and waits until all of them are running.
// It first waits for the slots to come free: a batch whose members have
// already been answered may still be handing its slot back.
func holdSlots(t *testing.T, f *Former) (release func()) {
	t.Helper()
	spin(t, "slots free", func() bool { return f.held() == 0 })
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < f.cfg.Slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := f.Submit(context.Background(), testKey(), []float32{0}, nil, func() ([]topk.Result, error) {
				<-gate
				return nil, nil
			})
			if err != nil {
				t.Errorf("slot holder: %v", err)
			}
		}()
	}
	spin(t, "slots held", func() bool { return f.held() == f.cfg.Slots })
	return func() {
		close(gate)
		wg.Wait()
	}
}

func testKey() Key { return Key{Collection: "c", Dim: 1, Metric: "L2", K: 1} }

// want checks one Submit outcome: the member's own result at occupancy occ.
func want(t *testing.T, ch chan submitResult, q float32, occ int) {
	t.Helper()
	out := <-ch
	if out.err != nil || out.occ != occ || len(out.res) != 1 || out.res[0].ID != int64(q) {
		t.Fatalf("Submit(%v) = (%v, occupancy %d, %v), want its own result at occupancy %d", q, out.res, out.occ, out.err, occ)
	}
}

func TestPassThroughWhileSlotFree(t *testing.T) {
	r := &testRunner{}
	f := newTestFormer(t, Config{Slots: 2, MaxBatch: 4, Run: r.run})
	res, occ, err := f.Submit(context.Background(), testKey(), []float32{1}, nil, solo)
	if err != nil || occ != 0 || len(res) != 1 || res[0].ID != soloSentinel {
		t.Fatalf("Submit on a free slot = (%v, %d, %v), want the per-query path's result", res, occ, err)
	}
	if n := len(r.sizes()); n != 0 {
		t.Fatalf("pass-through formed %d batches, want 0", n)
	}
}

// TestParksOnlyWhenEverySlotIsHeld: with two slots, two concurrent solo
// queries both run at once; the third parks, and runs as a batch of one on
// the first slot that frees.
func TestParksOnlyWhenEverySlotIsHeld(t *testing.T) {
	r := &testRunner{}
	f := newTestFormer(t, Config{Slots: 2, MaxBatch: 4, Run: r.run})
	release := holdSlots(t, f)
	ch := park(t, context.Background(), f, testKey(), 7)
	if n := len(r.sizes()); n != 0 {
		t.Fatalf("a batch ran while every slot was held")
	}
	release()
	want(t, ch, 7, 1)
}

// TestFreedSlotGoesToOldestGroup: a freed slot runs the group whose first
// member parked first, with every member of that group that is waiting.
func TestFreedSlotGoesToOldestGroup(t *testing.T) {
	r := &testRunner{}
	f := newTestFormer(t, Config{Slots: 1, MaxBatch: 16, Run: r.run})
	keyA, keyB := testKey(), testKey()
	keyB.K = 2
	release := holdSlots(t, f)
	a1 := park(t, context.Background(), f, keyA, 1)
	b1 := park(t, context.Background(), f, keyB, 2)
	a2 := park(t, context.Background(), f, keyA, 3)
	release()
	want(t, a1, 1, 2)
	want(t, a2, 3, 2)
	want(t, b1, 2, 1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.batches) != 2 || r.batches[0][0].Query()[0] != 1 || r.batches[1][0].Query()[0] != 2 {
		t.Fatalf("batches ran in the wrong order: %v", r.batches)
	}
}

// TestMaxBatchLeavesRemainderParked: five compatible parked queries under
// MaxBatch 2 run as 2, 2, 1 in arrival order; while the first batch runs
// the other three stay parked.
func TestMaxBatchLeavesRemainderParked(t *testing.T) {
	r := &testRunner{gate: make(chan struct{}), started: make(chan struct{})}
	f := newTestFormer(t, Config{Slots: 1, MaxBatch: 2, Run: r.run})
	release := holdSlots(t, f)
	var chs []chan submitResult
	for q := float32(1); q <= 5; q++ {
		chs = append(chs, park(t, context.Background(), f, testKey(), q))
	}
	release()
	<-r.started
	if n := f.Pending(); n != 3 {
		t.Fatalf("pending while the first batch runs = %d, want 3", n)
	}
	close(r.gate)
	for i, ch := range chs {
		occ := 2
		if i == 4 {
			occ = 1
		}
		want(t, ch, float32(i+1), occ)
	}
	if got := r.sizes(); len(got) != 3 || got[0] != 2 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("batch sizes = %v, want [2 2 1]", got)
	}
}

// TestGroupsAreKeyHomogeneous: queries parked under different keys never
// share a batch, however their arrivals interleave.
func TestGroupsAreKeyHomogeneous(t *testing.T) {
	r := &testRunner{}
	f := newTestFormer(t, Config{Slots: 1, MaxBatch: 4, Run: r.run})
	release := holdSlots(t, f)
	var chs []chan submitResult
	for i := 0; i < 8; i++ {
		key := testKey()
		key.K = 1 + i%2 // one knob differs → incompatible
		chs = append(chs, park(t, context.Background(), f, key, float32(i)))
	}
	release()
	for i, ch := range chs {
		want(t, ch, float32(i), 4)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.batches) != 2 {
		t.Fatalf("ran %d batches, want 2", len(r.batches))
	}
	for _, b := range r.batches {
		for _, it := range b {
			if int(it.Query()[0])%2 != int(b[0].Query()[0])%2 {
				t.Fatalf("batch mixes keys: queries %v and %v", b[0].Query(), it.Query())
			}
		}
	}
}

func TestCancelledParkedMemberDoesNotAbortPeers(t *testing.T) {
	r := &testRunner{}
	f := newTestFormer(t, Config{Slots: 1, MaxBatch: 4, Run: r.run})
	release := holdSlots(t, f)
	ctxA, cancelA := context.WithCancel(context.Background())
	chA := park(t, ctxA, f, testKey(), 1)
	chB := park(t, context.Background(), f, testKey(), 2)
	cancelA()
	// A returns at once, while every slot is still held.
	if out := <-chA; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("cancelled Submit err = %v, want context.Canceled", out.err)
	}
	release()
	want(t, chB, 2, 2)
	r.mu.Lock()
	defer r.mu.Unlock()
	// The joined batch context stays live while any member is: B was.
	if len(r.ctxErrs) != 1 || r.ctxErrs[0] != nil {
		t.Fatalf("joined ctx errs = %v, want one live batch", r.ctxErrs)
	}
}

// TestDeadBatchReleasesSlot: a batch whose members all died while parked
// still runs — with its joined context already cancelled, so the runner
// stops at once — and gives its slot back.
func TestDeadBatchReleasesSlot(t *testing.T) {
	r := &testRunner{}
	f := newTestFormer(t, Config{Slots: 1, MaxBatch: 4, Run: r.run})
	release := holdSlots(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	chs := []chan submitResult{park(t, ctx, f, testKey(), 1), park(t, ctx, f, testKey(), 2)}
	cancel()
	for _, ch := range chs {
		if out := <-ch; !errors.Is(out.err, context.Canceled) {
			t.Fatalf("cancelled Submit err = %v, want context.Canceled", out.err)
		}
	}
	release()
	spin(t, "dead batch run", func() bool { return len(r.sizes()) == 1 })
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ctxErrs[0] == nil {
		t.Fatal("joined ctx of an all-dead batch is still live")
	}
}

func TestCloseFlushesParkedGroups(t *testing.T) {
	r := &testRunner{}
	f := newTestFormer(t, Config{Slots: 1, MaxBatch: 4, Run: r.run})
	release := holdSlots(t, f)
	ch := park(t, context.Background(), f, testKey(), 3)
	f.Close()
	want(t, ch, 3, 1)
	// A closed former is a permanent pass-through: no slot, no parking,
	// even with the slot still held.
	res, occ, err := f.Submit(context.Background(), testKey(), []float32{4}, nil, solo)
	if err != nil || occ != 0 || res[0].ID != soloSentinel {
		t.Fatalf("Submit after Close = (%v, %d, %v), want the per-query path", res, occ, err)
	}
	release()
	f.Close()
}

func TestRunnerMissingMemberIsBackstopped(t *testing.T) {
	f := newTestFormer(t, Config{Slots: 1, MaxBatch: 4, Run: func(ctx context.Context, key Key, items []*Item) {}}) // delivers nothing
	release := holdSlots(t, f)
	chs := []chan submitResult{park(t, context.Background(), f, testKey(), 1), park(t, context.Background(), f, testKey(), 2)}
	release()
	for _, ch := range chs {
		if out := <-ch; !errors.Is(out.err, errMissedSlot) {
			t.Fatalf("missed member err = %v, want errMissedSlot", out.err)
		}
	}
}

// TestPrecancelledQueryTakesNoSlot: a query dead on arrival neither runs
// nor parks.
func TestPrecancelledQueryTakesNoSlot(t *testing.T) {
	f := newTestFormer(t, Config{Slots: 1, Run: (&testRunner{}).run})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, _, err := f.Submit(ctx, testKey(), []float32{1}, nil, func() ([]topk.Result, error) {
		ran = true
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) || ran {
		t.Fatalf("dead-on-arrival Submit: err = %v, ran = %v; want context.Canceled without running", err, ran)
	}
}

// TestPanickingSoloReturnsSlot: a solo query that panics still gives its
// slot back, so the next query runs at once instead of parking forever.
func TestPanickingSoloReturnsSlot(t *testing.T) {
	f := newTestFormer(t, Config{Slots: 1, Run: (&testRunner{}).run})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the solo query's panic was swallowed")
			}
		}()
		_, _, _ = f.Submit(context.Background(), testKey(), []float32{1}, nil, func() ([]topk.Result, error) {
			panic("search failed")
		})
	}()
	res, occ, err := f.Submit(context.Background(), testKey(), []float32{2}, nil, solo)
	if err != nil || occ != 0 || res[0].ID != soloSentinel {
		t.Fatalf("Submit after a panicking solo = (%v, %d, %v), want the per-query path", res, occ, err)
	}
}

// TestOnlyParkedWaitIsTraced: the batch_form span records a parked wait
// and nothing else — a query that runs alone carries none.
func TestOnlyParkedWaitIsTraced(t *testing.T) {
	f := newTestFormer(t, Config{Slots: 1, Run: (&testRunner{}).run})
	soloTr := obs.NewTrace("solo")
	if _, _, err := f.Submit(context.Background(), testKey(), []float32{1}, soloTr, solo); err != nil {
		t.Fatal(err)
	}
	if stages := soloTr.Stages(); len(stages) != 0 {
		t.Fatalf("solo query traced stages %v, want none", stages)
	}
	release := holdSlots(t, f)
	parkedTr := obs.NewTrace("parked")
	ch := make(chan submitResult, 1)
	go func() {
		res, occ, err := f.Submit(context.Background(), testKey(), []float32{5}, parkedTr, solo)
		ch <- submitResult{res, occ, err}
	}()
	spin(t, "query parked", func() bool { return f.Pending() == 1 })
	release()
	want(t, ch, 5, 1)
	if stages := parkedTr.Stages(); len(stages) != 1 || stages[0] != "batch_form" {
		t.Fatalf("parked query traced stages %v, want [batch_form]", stages)
	}
}

// TestSeriesCountPathsAndTriggers: each query lands on exactly one path,
// each batch on exactly one trigger, and wait_seconds observes only
// parked queries.
func TestSeriesCountPathsAndTriggers(t *testing.T) {
	reg := obs.NewRegistry()
	f := newTestFormer(t, Config{Slots: 1, Obs: reg, Collection: "c", Run: (&testRunner{}).run})
	if _, _, err := f.Submit(context.Background(), testKey(), []float32{1}, nil, solo); err != nil {
		t.Fatal(err)
	}
	release := holdSlots(t, f)
	a := park(t, context.Background(), f, testKey(), 2)
	release()
	want(t, a, 2, 1)
	release = holdSlots(t, f)
	b := park(t, context.Background(), f, testKey(), 3)
	f.Close()
	want(t, b, 3, 1)
	release()

	counter := func(name string, labels ...string) int64 {
		return reg.Counter(name, append([]string{"collection", "c"}, labels...)...).Value()
	}
	for _, c := range []struct {
		name, label, value string
		want               int64
	}{
		{"vectordb_batchform_queries_total", "path", "passthrough", 3}, // one alone, two slot holders
		{"vectordb_batchform_queries_total", "path", "batched", 2},
		{"vectordb_batchform_batches_total", "trigger", "slot", 1},
		{"vectordb_batchform_batches_total", "trigger", "close", 1},
		{"vectordb_batchform_occupancy_total", "size", "1", 2},
	} {
		if got := counter(c.name, c.label, c.value); got != c.want {
			t.Errorf("%s{%s=%q} = %d, want %d", c.name, c.label, c.value, got, c.want)
		}
	}
	if n := reg.Histogram("vectordb_batchform_wait_seconds", nil, "collection", "c").Count(); n != 2 {
		t.Errorf("wait_seconds observed %d waits, want 2 (the parked queries)", n)
	}
}
