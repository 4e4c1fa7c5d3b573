// Package exec is the shared query execution engine (paper Sec. 3.2):
// one process-wide, size-bounded pool of workers that runs segment-level
// search tasks for every concurrent query, instead of each query spawning
// its own GOMAXPROCS-sized goroutine fan-out. With per-query parallelism,
// q concurrent queries oversubscribe the CPU by q×; with a shared pool the
// hardware runs a fixed number of tasks while queries queue — the
// scheduling shape of Milvus's cache-aware engine and Faiss's OpenMP pool.
//
// A fan-out is caller-runs: the goroutine that calls Map works through
// its own tasks, and the workers only help. Map queues a few helper
// closures that claim tasks from the same counter, so an idle worker
// speeds a query up while a busy one never delays it — a query whose
// helpers are stuck behind other work finishes on its own goroutine.
//
// The pool is also the read path's one queue. A query runs only while it
// holds one of Workers run slots; with every slot taken it waits in one
// FIFO queue, bounded with fast-fail rejection (ErrRejected) so overload
// degrades into quick 503s instead of collapsing throughput. A freed slot
// passes straight to the oldest waiter, which also takes along the queued
// waiters that share its batch key: a batch is whatever compatible work was
// already waiting for a core. Cancellation propagates through the stdlib
// context.Context threaded into Map and Admit: a cancelled query leaves the
// queue at once, and a running one skips its remaining segment tasks.
package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/obs"
)

var (
	// ErrRejected is returned by Admit when every run slot is taken and the
	// queue is full. Callers should fail the query fast (REST maps it to
	// 503) rather than retry in a tight loop.
	ErrRejected = errors.New("exec: query rejected: admission queue full")
	// ErrClosed is returned by Admit once Close has begun, and to queries
	// still queued when it does.
	ErrClosed = errors.New("exec: pool closed")
)

// Config tunes a Pool. Zero values mean defaults.
type Config struct {
	// Workers is the fixed worker count (default GOMAXPROCS): the
	// goroutines that help a Map's caller with its tasks, at most Workers
	// helpers per Map. It is also the number of run slots: how many
	// queries execute at once.
	Workers int
	// AdmitQueue bounds queries waiting for a run slot (default
	// 64×Workers); one more waiter is rejected with ErrRejected.
	AdmitQueue int
	// MaxBatch caps the group a freed slot hands over: the oldest waiter
	// plus up to MaxBatch−1 queued waiters with its key (default 16; the
	// tile kernels carve a batch into register blocks of 4 downstream).
	// 1 turns grouping off.
	MaxBatch int
	// Obs, when set, receives the vectordb_exec_* series: vectordb_exec_inflight,
	// vectordb_exec_queue_depth, vectordb_exec_rejected_total, vectordb_exec_task_wait_seconds,
	// vectordb_exec_tasks_total, vectordb_exec_workers.
	Obs *obs.Registry
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.AdmitQueue <= 0 {
		c.AdmitQueue = 64 * c.Workers
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
}

// waiter is one query queued for a run slot. Its outcome (slot or err) is
// set, and ready closed, under the pool's mutex.
type waiter struct {
	key, val any
	ready    chan struct{}
	slot     Slot
	err      error
}

// Slot is what Admit grants: a run slot, possibly carrying peers, or a
// place in another holder's group.
type Slot struct {
	// Peers are the values passed to Admit by the queued waiters that rode
	// this slot's hand-off, oldest first: the holder runs them together with
	// its own query and answers each. Nil when the holder runs alone.
	Peers []any
	// Joined reports that the caller was taken as a peer of another waiter:
	// it holds no slot, and its value is in that waiter's Peers.
	Joined bool

	p *Pool // nil unless the slot is held
}

// Release returns a held slot, passing it straight to the oldest waiter.
// Holders call it exactly once, deferred, so a panicking query still hands
// its slot on; on a joined slot it does nothing.
func (s Slot) Release() {
	if s.p != nil {
		s.p.release()
	}
}

// Pool runs segment-level tasks on a fixed worker set and admits queries
// to a fixed set of run slots. The zero value is unusable; call NewPool or
// Default.
type Pool struct {
	cfg     Config
	helpers chan func() // queued Map helpers, each claiming tasks until none are left

	mu      sync.Mutex
	running int       // run slots held
	queue   []*waiter // queries waiting for a slot, oldest first
	closed  bool
	idle    sync.Cond // broadcast when a slot is returned after Close

	rejected atomic.Int64
	ran      atomic.Int64

	taskWait *obs.Histogram

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewPool starts a pool with cfg.Workers resident workers.
func NewPool(cfg Config) *Pool {
	cfg.defaults()
	p := &Pool{
		cfg: cfg,
		// Helpers only ever add parallelism, so a full queue just means
		// fewer of them: its depth is not a knob.
		helpers: make(chan func(), 4*cfg.Workers),
		// A nil-registry histogram works but is scraped nowhere.
		taskWait: cfg.Obs.Histogram("vectordb_exec_task_wait_seconds", nil),
	}
	p.idle.L = &p.mu
	if reg := cfg.Obs; reg != nil {
		reg.Help("vectordb_exec_inflight", "Queries holding a run slot in the shared execution pool.")
		reg.GaugeFunc("vectordb_exec_inflight", func() int64 { return int64(p.Inflight()) })
		reg.Help("vectordb_exec_queue_depth", "Helper closures waiting in the shared execution pool queue.")
		reg.GaugeFunc("vectordb_exec_queue_depth", func() int64 { return int64(len(p.helpers)) })
		reg.Help("vectordb_exec_rejected_total", "Queries fast-failed by admission control.")
		reg.CounterFunc("vectordb_exec_rejected_total", func() int64 { return p.rejected.Load() })
		reg.Help("vectordb_exec_tasks_total", "Segment tasks run by Map, on the calling goroutine or a worker.")
		reg.CounterFunc("vectordb_exec_tasks_total", func() int64 { return p.ran.Load() })
		reg.Help("vectordb_exec_workers", "Resident workers in the shared execution pool.")
		reg.GaugeFunc("vectordb_exec_workers", func() int64 { return int64(cfg.Workers) })
		reg.Help("vectordb_exec_task_wait_seconds", "Queue wait of helpers that claimed a segment task, before a worker picked them up.")
	}
	p.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go p.worker()
	}
	return p
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, created on first use with
// default sizing and no metrics registry. It is never closed.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(Config{}) })
	return defaultPool
}

// Workers returns the resident worker count, which is also the run-slot
// count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// MaxBatch returns the largest group a freed slot hands over.
func (p *Pool) MaxBatch() int { return p.cfg.MaxBatch }

// Rejected returns how many queries admission control has fast-failed.
//
//lint:allow testonly core's admission tests read the fast-fail count off the pool they share
func (p *Pool) Rejected() int64 { return p.rejected.Load() }

// Inflight returns the number of queries holding a run slot (≤ Workers).
func (p *Pool) Inflight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// Waiting returns the number of queries queued for a run slot.
func (p *Pool) Waiting() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Backlog is the planner's load input: helpers queued, queries queued for
// a slot, and queries holding one.
func (p *Pool) Backlog() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.helpers) + len(p.queue) + p.running
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for help := range p.helpers {
		help()
	}
}

// Close stops admission, fails every queued query with ErrClosed, waits
// until no run slot is held, and then stops the workers once the helper
// queue drains. Callers that Map without holding a slot must have stopped
// first; the Default pool is never closed.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		for _, w := range p.queue {
			w.err = ErrClosed
			close(w.ready)
		}
		p.queue = nil
		for p.running > 0 {
			p.idle.Wait()
		}
		p.mu.Unlock()
		close(p.helpers)
		p.wg.Wait()
	})
}

// Map runs fn(0)..fn(n-1), each exactly once, and returns when all have
// finished. The calling goroutine does the work: it claims tasks off one
// counter until none are left, while up to min(n−1, Workers) helpers
// queued for the workers claim from the same counter. Map then waits only
// for tasks a worker has already started. A helper that a worker dequeues
// late finds nothing to claim and returns without touching anything, and a
// full queue only means fewer helpers. So a query never waits behind other
// queries' tasks, and nested fan-outs (a cluster query fanning into
// per-reader segment fan-outs) cannot deadlock. With a run slot spare the
// caller first yields its core to a helper, so both start at once; with
// one task, or a nil pool, no helper is queued and everything runs inline.
//
// Cancellation is checked before each task: once ctx is done, tasks that
// have not started are skipped and Map returns ctx.Err(). Tasks already
// running complete — results arrays indexed by task therefore stay
// consistent — but no new per-segment work begins.
//
// A task that panics is recovered wherever it ran, so a worker survives
// it. Tasks not yet started are then skipped, Map waits for those already
// running, the caller's own included, and re-panics on the caller with a
// *TaskPanic that carries the first value recovered and its stack.
func (p *Pool) Map(ctx context.Context, n int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p == nil {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			fn(i)
		}
		return ctx.Err()
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		fault atomic.Pointer[TaskPanic] // the first panic recovered
	)
	wg.Add(n)
	run := func(i int) {
		defer func() {
			if v := recover(); v != nil {
				// The stack still holds the panicking frames here.
				fault.CompareAndSwap(nil, &TaskPanic{Value: v, Stack: debug.Stack()})
			}
		}()
		fn(i)
	}
	// claim runs tasks until the counter passes n; only a claimed task
	// touches fn, the pool's counters or wg.
	claim := func() (claimed bool) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return claimed
			}
			claimed = true
			if ctx.Err() == nil && fault.Load() == nil {
				p.ran.Add(1)
				run(i)
			}
			wg.Done()
		}
	}
	if helpers := min(n-1, p.cfg.Workers); helpers > 0 {
		enqueued := time.Now()
		help := func() {
			wait := time.Since(enqueued)
			if claim() {
				p.taskWait.Observe(wait)
			}
		}
	enqueue:
		for h := 0; h < helpers; h++ {
			select {
			case p.helpers <- help:
			default:
				break enqueue
			}
		}
		// A worker woken from here waits in this core's run-next slot,
		// where an idle core takes it only after a delay longer than a
		// small task. With a run slot spare, a core is likely idle: yield,
		// so the helper starts here at once and the caller resumes on the
		// idle core. With every slot taken, keep the core and run.
		p.mu.Lock()
		spare := p.running < p.cfg.Workers
		p.mu.Unlock()
		if spare {
			runtime.Gosched()
		}
	}
	claim()
	wg.Wait()
	if v := fault.Load(); v != nil {
		panic(v)
	}
	return ctx.Err()
}

// A TaskPanic is what Map re-panics with when a task panicked: the task's
// value, and the stack where it panicked, which the re-panic on Map's
// caller would otherwise lose. Its Error holds both, so a crash or
// net/http's recovery log shows the fault site.
type TaskPanic struct {
	Value any
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("%v\n\ntask goroutine stack:\n%s", p.Value, p.Stack)
}

// Admit grants one of the pool's run slots, queueing the query while every
// slot is taken. It fails fast with ErrRejected when AdmitQueue queries are
// already queued, with ErrClosed once Close has begun, and with ctx's error
// if the context ends while the query is queued — at which point it leaves
// the queue at once.
//
// key is the query's batch key (nil: never grouped) and must be comparable;
// val is handed to another holder, in its Slot.Peers, if this query rides
// that holder's hand-off as a peer. The returned Slot says which happened.
// A holder calls Release exactly once. Admission is taken once per
// top-level query — internal sub-queries (filter strategies, multi-vector
// rounds) run under the top-level slot, so a query never waits on itself.
func (p *Pool) Admit(ctx context.Context, key, val any) (Slot, error) {
	if p == nil {
		return Slot{}, nil
	}
	if err := ctx.Err(); err != nil {
		return Slot{}, err
	}
	p.mu.Lock()
	switch {
	case p.closed:
		p.mu.Unlock()
		return Slot{}, ErrClosed
	case p.running < p.cfg.Workers:
		p.running++
		p.mu.Unlock()
		return Slot{p: p}, nil
	case len(p.queue) >= p.cfg.AdmitQueue:
		p.mu.Unlock()
		p.rejected.Add(1)
		return Slot{}, ErrRejected
	}
	w := &waiter{key: key, val: val, ready: make(chan struct{})}
	p.queue = append(p.queue, w)
	p.mu.Unlock()
	select {
	case <-w.ready:
	case <-ctx.Done():
		p.mu.Lock()
		i := slices.Index(p.queue, w)
		if i >= 0 {
			p.queue = slices.Delete(p.queue, i, i+1)
		}
		p.mu.Unlock()
		if i >= 0 {
			return Slot{}, ctx.Err()
		}
		// Dequeued under the mutex: the outcome is set and ready closed.
	}
	if w.err == nil && w.slot.Peers == nil && ctx.Err() != nil {
		// Died at the hand-off: a lone holder passes the slot on, and a
		// peer's holder skips it. A holder with peers leads them anyway.
		w.slot.Release()
		return Slot{}, ctx.Err()
	}
	return w.slot, w.err
}

// release returns a run slot. With queries queued the slot stays taken and
// passes to the oldest, together with up to MaxBatch−1 queued peers that
// share its non-nil key; the rest keep their order. Only a keyed waiter,
// with grouping on, costs a scan of the queue.
func (p *Pool) release() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		p.running--
		if p.closed {
			p.idle.Broadcast()
		}
		return
	}
	w := p.queue[0]
	p.queue[0] = nil
	p.queue = p.queue[1:]
	if w.key != nil && p.cfg.MaxBatch > 1 {
		rest := p.queue[:0]
		for _, q := range p.queue {
			if len(w.slot.Peers) < p.cfg.MaxBatch-1 && q.key == w.key {
				w.slot.Peers = append(w.slot.Peers, q.val)
				q.slot.Joined = true
				close(q.ready)
				continue
			}
			rest = append(rest, q)
		}
		clear(p.queue[len(rest):])
		p.queue = rest
	}
	w.slot.p = p
	close(w.ready)
}
