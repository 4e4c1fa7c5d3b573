package exec

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vectordb/internal/obs"
)

func TestMapRunsAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(Config{Workers: workers})
		var hits [100]atomic.Int32
		if err := p.Map(context.Background(), len(hits), func(i int) { hits[i].Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, n)
			}
		}
		p.Close()
	}
}

func TestMapNilPoolInline(t *testing.T) {
	var p *Pool
	var sum int
	if err := p.Map(context.Background(), 5, func(i int) { sum += i }); err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

func TestMapCancelSkipsRemaining(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := p.Map(ctx, 1000, func(i int) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d tasks ran despite cancellation", n)
	}
}

// TestMapNestedNoDeadlock submits fan-outs from inside pool tasks: each
// Map's caller runs its own tasks, so none waits on a queued one.
func TestMapNestedNoDeadlock(t *testing.T) {
	p := NewPool(Config{Workers: 2})
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var inner atomic.Int32
		_ = p.Map(context.Background(), 8, func(int) {
			_ = p.Map(context.Background(), 8, func(int) { inner.Add(1) })
		})
		if inner.Load() != 64 {
			t.Errorf("inner tasks = %d, want 64", inner.Load())
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

// TestMapFinishesOnCallerWhenWorkersWedged: with every worker stuck in
// another query's task, a Map still finishes on its own goroutine, and its
// helpers, dequeued once the workers are free, run nothing.
func TestMapFinishesOnCallerWhenWorkersWedged(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(Config{Workers: 2, Obs: reg})
	w := p.Workers()
	release := make(chan struct{})
	var started atomic.Int32
	wedged := make(chan struct{})
	go func() {
		defer close(wedged)
		_ = p.Map(context.Background(), w+1, func(int) {
			started.Add(1)
			<-release
		})
	}()
	// The caller and every worker each hold one of the w+1 tasks.
	for deadline := time.Now().Add(time.Second); started.Load() < int32(w+1) && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	var hits [2]atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = p.Map(context.Background(), len(hits), func(i int) { hits[i].Add(1) })
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		close(release)
		t.Fatal("Map waited behind wedged workers instead of running its tasks")
	}
	close(release)
	<-wedged
	p.Close() // drains the late helpers
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, n)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		fmt.Sprintf("vectordb_exec_tasks_total %d\n", w+1+len(hits)),
		// Only the first Map's helpers claimed a task.
		fmt.Sprintf("vectordb_exec_task_wait_seconds_count %d\n", w),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}

func TestAdmitBlocksThenReleases(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1, AdmitQueue: 4})
	s1, err := p.Admit(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second := enqueue(t, p, context.Background(), nil, nil)
	select {
	case <-second:
		t.Fatal("second Admit succeeded while the slot was held")
	default:
	}
	s1.Release()
	lead(t, second).Release()
}

func TestAdmitRejectsWhenQueueFull(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1, AdmitQueue: 1})
	held := holdAll(t, p)
	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiting := enqueue(t, p, waiterCtx, nil, nil)
	if _, err := p.Admit(context.Background(), nil, nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if p.Rejected() != 1 {
		t.Fatalf("Rejected() = %d, want 1", p.Rejected())
	}
	cancelWaiter()
	if out := <-waiting; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", out.err)
	}
	held[0].Release()
}

func TestAdmitHonorsContext(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1, AdmitQueue: 4})
	held := holdAll(t, p)
	defer held[0].Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.Admit(ctx, nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestNilPoolAdmit(t *testing.T) {
	var p *Pool
	s, err := p.Admit(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
}

func TestMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(Config{Workers: 2, Obs: reg})
	defer p.Close()
	s, err := p.Admit(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = p.Map(context.Background(), 4, func(int) {})
	s.Release()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, series := range []string{
		"vectordb_exec_inflight", "vectordb_exec_queue_depth", "vectordb_exec_rejected_total",
		"vectordb_exec_task_wait_seconds", "vectordb_exec_tasks_total", "vectordb_exec_workers",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s:\n%s", series, text)
		}
	}
}

func TestCloseIdempotentAndDrains(t *testing.T) {
	p := NewPool(Config{Workers: 4})
	var ran atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = p.Map(context.Background(), 16, func(int) { ran.Add(1) })
		}()
	}
	wg.Wait()
	p.Close()
	p.Close()
	if ran.Load() != 128 {
		t.Fatalf("ran = %d, want 128", ran.Load())
	}
}

func TestDefaultSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default() returned different pools")
	}
	if Default().Workers() < 1 {
		t.Fatal("default pool has no workers")
	}
}

// The queue cases below drive Admit and Release directly. None sleeps: a
// step waits only for a state the previous one guarantees (a query
// queued, an outcome delivered), so each is deterministic under -race.

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

// newQueuePool builds a pool and checks, once the test is done, that it
// ends with no slot held and nothing queued — whatever path each query
// took, every slot must come back.
func newQueuePool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p := NewPool(cfg)
	t.Cleanup(func() {
		if n, q := p.Inflight(), p.Waiting(); n != 0 || q != 0 {
			t.Errorf("%d slots held and %d queries queued at the end", n, q)
		}
		p.Close()
	})
	return p
}

type admitted struct {
	slot Slot
	err  error
}

// enqueue runs one Admit on its own goroutine and waits until it is
// queued.
func enqueue(t *testing.T, p *Pool, ctx context.Context, key, val any) chan admitted {
	t.Helper()
	want := p.Waiting() + 1
	ch := make(chan admitted, 1)
	go func() {
		s, err := p.Admit(ctx, key, val)
		ch <- admitted{s, err}
	}()
	spin(t, "query queued", func() bool { return p.Waiting() == want })
	return ch
}

// holdAll takes every run slot.
func holdAll(t *testing.T, p *Pool) []Slot {
	t.Helper()
	slots := make([]Slot, p.Workers())
	for i := range slots {
		s, err := p.Admit(context.Background(), "k", i)
		if err != nil || s.p == nil {
			t.Fatalf("slot %d: %+v, %v; want a free slot", i, s, err)
		}
		slots[i] = s
	}
	return slots
}

// lead receives one Admit outcome and checks it holds a slot carrying
// exactly the given peers, oldest first.
func lead(t *testing.T, ch chan admitted, peers ...any) Slot {
	t.Helper()
	out := <-ch
	if out.err != nil || out.slot.p == nil || out.slot.Joined || !slices.Equal(out.slot.Peers, peers) {
		t.Fatalf("Admit = %+v, %v; want a held slot with peers %v", out.slot, out.err, peers)
	}
	return out.slot
}

// joined receives one Admit outcome and checks the query rode another
// query's slot as a peer.
func joined(t *testing.T, ch chan admitted) {
	t.Helper()
	if out := <-ch; out.err != nil || !out.slot.Joined || out.slot.p != nil {
		t.Fatalf("Admit = %+v, %v; want joined as a peer", out.slot, out.err)
	}
}

// died receives one Admit outcome and checks it is err, holding nothing.
func died(t *testing.T, ch chan admitted, err error) {
	t.Helper()
	if out := <-ch; !errors.Is(out.err, err) || out.slot.p != nil || out.slot.Joined {
		t.Fatalf("Admit = %+v, %v; want %v holding nothing", out.slot, out.err, err)
	}
}

// flagCtx is a context whose Err turns non-nil on kill while Done never
// fires: a waiter holding it stays queued and meets its death only at the
// hand-off, which pins the race between a grant and a cancel without
// timing.
type flagCtx struct {
	context.Context
	dead atomic.Bool
}

func newFlagCtx() *flagCtx { return &flagCtx{Context: context.Background()} }

func (c *flagCtx) kill() { c.dead.Store(true) }

func (c *flagCtx) Err() error {
	if c.dead.Load() {
		return context.Canceled
	}
	return nil
}

func TestFreeSlotAdmitsAtOnce(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 2})
	s, err := p.Admit(context.Background(), "k", 1)
	if err != nil || s.p == nil || s.Peers != nil || s.Joined {
		t.Fatalf("Admit on a free slot = %+v, %v; want a held slot, alone", s, err)
	}
	if n, q := p.Inflight(), p.Waiting(); n != 1 || q != 0 {
		t.Fatalf("inflight %d, queued %d; want 1, 0", n, q)
	}
	s.Release()
}

// TestQueuesOnlyWhenEverySlotIsHeld: with two slots, two queries hold them
// and a third queues; the first slot freed goes to it.
func TestQueuesOnlyWhenEverySlotIsHeld(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 2})
	held := holdAll(t, p)
	ch := enqueue(t, p, context.Background(), "k", 7)
	if n := p.Inflight(); n != 2 {
		t.Fatalf("inflight = %d with a query queued, want 2", n)
	}
	held[0].Release()
	lead(t, ch).Release()
	held[1].Release()
}

// TestFreedSlotGoesToOldestWaiter: a freed slot goes to the oldest queued
// query, which takes along every queued peer with its key; a query with
// another key waits for the next slot, still first in line.
func TestFreedSlotGoesToOldestWaiter(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	held := holdAll(t, p)
	ctx := context.Background()
	a1 := enqueue(t, p, ctx, "a", 1)
	b1 := enqueue(t, p, ctx, "b", 2)
	a2 := enqueue(t, p, ctx, "a", 3)
	held[0].Release()
	s := lead(t, a1, 3)
	joined(t, a2)
	if n := p.Waiting(); n != 1 {
		t.Fatalf("%d queued after the hand-off, want 1", n)
	}
	s.Release()
	lead(t, b1).Release()
}

// TestMaxBatchLeavesRemainderQueued: five queued queries with one key go,
// under MaxBatch 2, as groups of 2, 2 and 1 in arrival order; the rest stay
// queued meanwhile.
func TestMaxBatchLeavesRemainderQueued(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1, MaxBatch: 2})
	held := holdAll(t, p)
	var chs []chan admitted
	for v := 1; v <= 5; v++ {
		chs = append(chs, enqueue(t, p, context.Background(), "k", v))
	}
	held[0].Release()
	s := lead(t, chs[0], 2)
	joined(t, chs[1])
	if n := p.Waiting(); n != 3 {
		t.Fatalf("%d queued while the first group runs, want 3", n)
	}
	s.Release()
	s = lead(t, chs[2], 4)
	joined(t, chs[3])
	s.Release()
	lead(t, chs[4]).Release()
}

// TestGroupsAreKeyHomogeneous: queries queued under two interleaved keys
// never share a group.
func TestGroupsAreKeyHomogeneous(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1, MaxBatch: 4})
	held := holdAll(t, p)
	var chs []chan admitted
	for v := 0; v < 8; v++ {
		chs = append(chs, enqueue(t, p, context.Background(), v%2, v))
	}
	held[0].Release()
	for first := 0; first < 2; first++ {
		s := lead(t, chs[first], first+2, first+4, first+6)
		for _, i := range []int{first + 2, first + 4, first + 6} {
			joined(t, chs[i])
		}
		s.Release()
	}
}

// TestNilKeyNeverGroups: queries without a batch key each wait for a slot
// of their own.
func TestNilKeyNeverGroups(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	held := holdAll(t, p)
	a := enqueue(t, p, context.Background(), nil, 1)
	b := enqueue(t, p, context.Background(), nil, 2)
	held[0].Release()
	s := lead(t, a)
	if n := p.Waiting(); n != 1 {
		t.Fatalf("%d queued, want 1", n)
	}
	s.Release()
	lead(t, b).Release()
}

// TestCancelledWaiterLeavesQueue: a queued query whose context dies
// returns its error at once, while every slot is still held, and the
// freed slot goes to the next waiter.
func TestCancelledWaiterLeavesQueue(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	held := holdAll(t, p)
	ctxA, cancelA := context.WithCancel(context.Background())
	a := enqueue(t, p, ctxA, "k", 1)
	b := enqueue(t, p, context.Background(), "k", 2)
	cancelA()
	died(t, a, context.Canceled)
	if n := p.Waiting(); n != 1 {
		t.Fatalf("%d queued after a cancel, want 1", n)
	}
	held[0].Release()
	lead(t, b).Release()
}

// TestDeadAtHandOffPassesSlotOn: a query that dies just as it is granted
// the slot passes it straight on to the next waiter.
func TestDeadAtHandOffPassesSlotOn(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	held := holdAll(t, p)
	fc := newFlagCtx()
	a := enqueue(t, p, fc, nil, 1)
	b := enqueue(t, p, context.Background(), nil, 2)
	fc.kill()
	held[0].Release()
	died(t, a, context.Canceled)
	lead(t, b).Release()
}

// TestDeadPeerReachesItsHolder: a query that dies after being taken as a
// peer returns its error, and its value still reaches the holder, whose
// batch skips it.
func TestDeadPeerReachesItsHolder(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	held := holdAll(t, p)
	a := enqueue(t, p, context.Background(), "k", 1)
	fc := newFlagCtx()
	b := enqueue(t, p, fc, "k", 2)
	fc.kill()
	held[0].Release()
	s := lead(t, a, 2)
	died(t, b, context.Canceled)
	s.Release()
}

// TestDeadHolderStillLeadsItsPeers: a query that dies as it is granted a
// slot with peers keeps the slot, because its peers depend on it.
func TestDeadHolderStillLeadsItsPeers(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	held := holdAll(t, p)
	fc := newFlagCtx()
	a := enqueue(t, p, fc, "k", 1)
	b := enqueue(t, p, context.Background(), "k", 2)
	fc.kill()
	held[0].Release()
	s := lead(t, a, 2)
	joined(t, b)
	s.Release()
}

// TestDeadOnArrivalTakesNoSlot: a query dead on arrival neither holds a
// slot nor queues.
func TestDeadOnArrivalTakesNoSlot(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s, err := p.Admit(ctx, "k", 1); !errors.Is(err, context.Canceled) || s.p != nil {
		t.Fatalf("dead-on-arrival Admit = %+v, %v; want context.Canceled holding nothing", s, err)
	}
	if n, q := p.Inflight(), p.Waiting(); n != 0 || q != 0 {
		t.Fatalf("inflight %d, queued %d after a dead arrival", n, q)
	}
}

// TestPanickingHolderReturnsSlot: a holder that panics still hands its
// slot on through its deferred Release, so the next query runs at once.
func TestPanickingHolderReturnsSlot(t *testing.T) {
	p := newQueuePool(t, Config{Workers: 1})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the holder's panic was swallowed")
			}
		}()
		s, err := p.Admit(context.Background(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Release()
		panic("search failed")
	}()
	s, err := p.Admit(context.Background(), nil, nil)
	if err != nil || s.p == nil {
		t.Fatalf("Admit after a panicking holder = %+v, %v; want a free slot", s, err)
	}
	s.Release()
}

// TestCloseFailsQueuedAndWaitsForHolders: Close fails queued queries and
// later arrivals with ErrClosed, and returns only once the last holder has
// released its slot.
func TestCloseFailsQueuedAndWaitsForHolders(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	held := holdAll(t, p)
	q := enqueue(t, p, context.Background(), "k", 1)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		p.Close()
	}()
	died(t, q, ErrClosed)
	if _, err := p.Admit(context.Background(), nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close: err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a slot was held")
	default:
	}
	held[0].Release()
	<-closed
	p.Close()
}

// onWorker reports whether the calling goroutine is one of a pool's
// resident workers rather than a Map's caller.
func onWorker() bool {
	buf := make([]byte, 8<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("(*Pool).worker"))
}

// meet returns a task prologue that holds each of two tasks until both are
// running, so one runs on the caller and one on a worker; it reports false
// if the other never arrived.
func meet() func() bool {
	var in atomic.Int32
	return func() bool {
		in.Add(1)
		for deadline := time.Now().Add(5 * time.Second); in.Load() < 2; runtime.Gosched() {
			if time.Now().After(deadline) {
				return false
			}
		}
		return true
	}
}

// mapPanic runs p.Map(n, fn) and returns the task's value it panicked
// with, failing t unless the panic carries the stack where the task
// panicked: a frame of the test that runs mapPanic.
func mapPanic(t *testing.T, p *Pool, n int, fn func(int)) any {
	t.Helper()
	var tp *TaskPanic
	func() {
		defer func() {
			if v := recover(); v != nil {
				tp = v.(*TaskPanic)
			}
		}()
		_ = p.Map(context.Background(), n, fn)
	}()
	if tp == nil {
		return nil
	}
	if site := t.Name() + ".func"; !strings.Contains(string(tp.Stack), site) || !strings.Contains(tp.Error(), site) {
		t.Errorf("the panic of %v carries no frame of %s:\n%s", tp.Value, site, tp.Error())
	}
	return tp.Value
}

// TestMapPanicReachesCaller: a task that panics on a worker is recovered
// there and re-panicked on Map's caller with its value; a task that panics
// on the caller still waits for the worker's running task; and the worker
// then serves a new Map.
func TestMapPanicReachesCaller(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	for round := 0; round < 3; round++ {
		both := meet()
		v := mapPanic(t, p, 2, func(int) {
			if both() && onWorker() {
				panic("worker task")
			}
		})
		if v != "worker task" {
			t.Fatalf("round %d: Map's caller saw %v, want the worker's panic", round, v)
		}

		both = meet()
		var finished atomic.Bool
		v = mapPanic(t, p, 2, func(int) {
			if !both() {
				return
			}
			if !onWorker() {
				panic("caller task")
			}
			time.Sleep(20 * time.Millisecond)
			finished.Store(true)
		})
		if v != "caller task" {
			t.Fatalf("round %d: Map's caller saw %v, want its own panic", round, v)
		}
		if !finished.Load() {
			t.Fatalf("round %d: Map re-panicked before the worker's running task finished", round)
		}
	}
	// All of the worker's help is still there: both tasks meet.
	both := meet()
	var met atomic.Int32
	if err := p.Map(context.Background(), 2, func(int) {
		if both() {
			met.Add(1)
		}
	}); err != nil || met.Load() != 2 {
		t.Fatalf("Map after panics: err %v, %d of 2 tasks met a worker", err, met.Load())
	}
}

// TestMapPanicSkipsUnstartedTasks: once a task has panicked, tasks not
// yet claimed do not run.
func TestMapPanicSkipsUnstartedTasks(t *testing.T) {
	p := NewPool(Config{Workers: 1})
	defer p.Close()
	var ran atomic.Int32
	v := mapPanic(t, p, 1000, func(i int) {
		ran.Add(1)
		if i == 0 {
			panic(fmt.Errorf("task %d", i))
		}
		time.Sleep(10 * time.Microsecond)
	})
	if err, ok := v.(error); !ok || err.Error() != "task 0" {
		t.Fatalf("Map's caller saw %v, want task 0's error", v)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("all %d tasks ran after task 0 panicked", n)
	}
}
