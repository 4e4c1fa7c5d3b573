// Package exec is the shared query execution engine (paper Sec. 3.2):
// one process-wide, size-bounded pool of workers that runs segment-level
// search tasks for every concurrent query, instead of each query spawning
// its own GOMAXPROCS-sized goroutine fan-out. With per-query parallelism,
// q concurrent queries oversubscribe the CPU by q×; with a shared pool the
// hardware runs a fixed number of tasks while queries queue — the
// scheduling shape of Milvus's cache-aware engine and Faiss's OpenMP pool.
//
// The pool also provides the read path's admission control: a bounded
// number of in-flight queries plus a bounded wait queue with fast-fail
// rejection (ErrRejected), so overload degrades into quick 503s instead of
// collapsing throughput. Cancellation propagates through the stdlib
// context.Context threaded into Map and Admit: a cancelled or timed-out
// query skips its remaining segment tasks instead of running to
// completion.
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/obs"
)

// ErrRejected is returned by Admit when the in-flight limit and the
// admission wait queue are both full. Callers should fail the query fast
// (REST maps it to 503) rather than retry in a tight loop.
var ErrRejected = errors.New("exec: query rejected: admission queue full")

// Config tunes a Pool. Zero values mean defaults.
type Config struct {
	// Workers is the fixed worker count (default GOMAXPROCS): the only
	// goroutines that ever run submitted tasks, beyond submitters running
	// tasks inline when the queue is full.
	Workers int
	// QueueDepth bounds the task queue (default 4×Workers). A full queue
	// never blocks or fails a submit: the submitting goroutine runs the
	// task itself, which both applies backpressure and makes nested
	// fan-outs deadlock-free.
	QueueDepth int
	// MaxInflight bounds admitted queries (default 16×Workers).
	MaxInflight int
	// AdmitQueue bounds queries waiting for admission (default
	// 4×MaxInflight); one more waiter is rejected with ErrRejected.
	AdmitQueue int
	// Obs, when set, receives the vectordb_exec_* series: vectordb_exec_inflight,
	// vectordb_exec_queue_depth, vectordb_exec_rejected_total, vectordb_exec_task_wait_seconds,
	// vectordb_exec_tasks_total, vectordb_exec_workers.
	Obs *obs.Registry
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 16 * c.Workers
	}
	if c.AdmitQueue <= 0 {
		c.AdmitQueue = 4 * c.MaxInflight
	}
}

type task struct {
	fn       func()
	enqueued time.Time
}

// Pool runs segment-level tasks on a fixed worker set and admits queries
// against a bounded in-flight budget. The zero value is unusable; call
// NewPool or Default.
type Pool struct {
	cfg   Config
	tasks chan task
	sem   chan struct{} // in-flight query slots

	waiting  atomic.Int64 // queries blocked in Admit
	rejected atomic.Int64
	ran      atomic.Int64

	taskWait *obs.Histogram

	wg        sync.WaitGroup
	closeOnce sync.Once

	release func() // shared releaser, avoids a closure per admitted query
}

// NewPool starts a pool with cfg.Workers resident workers.
func NewPool(cfg Config) *Pool {
	cfg.defaults()
	p := &Pool{
		cfg:   cfg,
		tasks: make(chan task, cfg.QueueDepth),
		sem:   make(chan struct{}, cfg.MaxInflight),
		// A nil-registry histogram works but is scraped nowhere.
		taskWait: cfg.Obs.Histogram("vectordb_exec_task_wait_seconds", nil),
	}
	p.release = func() { <-p.sem }
	if reg := cfg.Obs; reg != nil {
		reg.Help("vectordb_exec_inflight", "Admitted in-flight queries in the shared execution pool.")
		reg.GaugeFunc("vectordb_exec_inflight", func() int64 { return int64(len(p.sem)) })
		reg.Help("vectordb_exec_queue_depth", "Segment tasks waiting in the shared execution pool queue.")
		reg.GaugeFunc("vectordb_exec_queue_depth", func() int64 { return int64(len(p.tasks)) })
		reg.Help("vectordb_exec_rejected_total", "Queries fast-failed by admission control.")
		reg.CounterFunc("vectordb_exec_rejected_total", func() int64 { return p.rejected.Load() })
		reg.Help("vectordb_exec_tasks_total", "Segment tasks executed by the shared pool (queued + inline).")
		reg.CounterFunc("vectordb_exec_tasks_total", func() int64 { return p.ran.Load() })
		reg.Help("vectordb_exec_workers", "Resident workers in the shared execution pool.")
		reg.GaugeFunc("vectordb_exec_workers", func() int64 { return int64(cfg.Workers) })
		reg.Help("vectordb_exec_task_wait_seconds", "Queue wait of segment tasks before a worker picks them up.")
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

// Workers returns the resident worker count.
func (p *Pool) Workers() int { return p.cfg.Workers }

// Rejected returns how many queries admission control has fast-failed.
func (p *Pool) Rejected() int64 { return p.rejected.Load() }

// TasksRun returns how many tasks have executed (workers + inline).
func (p *Pool) TasksRun() int64 { return p.ran.Load() }

// Inflight returns the number of currently admitted queries.
func (p *Pool) Inflight() int { return len(p.sem) }

// Waiting returns the number of queries blocked in Admit.
func (p *Pool) Waiting() int64 { return p.waiting.Load() }

// QueueDepth returns the number of segment tasks waiting in the queue —
// the instantaneous value behind vectordb_exec_queue_depth, exposed so the
// planner can price queries against live backlog.
func (p *Pool) QueueDepth() int { return len(p.tasks) }

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		p.taskWait.Observe(time.Since(t.enqueued))
		p.ran.Add(1)
		t.fn()
	}
}

// Close stops the workers after the queue drains. Callers must have
// stopped submitting first; the Default pool is never closed.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.tasks)
		p.wg.Wait()
	})
}

// Map runs fn(0)..fn(n-1) on the shared workers and returns when all
// submitted tasks have finished. The submitting goroutine participates:
// when the bounded queue is full it runs the task inline, so a saturated
// pool degrades to caller-runs execution instead of deadlocking — nested
// fan-outs (a cluster query fanning into per-reader segment fan-outs) are
// therefore always safe. With a single worker, or a single task, Map runs
// everything inline: there is no parallelism to be had and the queue
// round-trip would be pure overhead.
//
// Cancellation is checked between tasks: once ctx is done, tasks that have
// not started are skipped (queued ones drain as no-ops) and Map returns
// ctx.Err(). Tasks already running complete — results arrays indexed by
// task therefore stay consistent — but no new per-segment work begins.
func (p *Pool) Map(ctx context.Context, n int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p == nil || p.cfg.Workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if p != nil {
				p.ran.Add(1)
			}
			fn(i)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		i := i
		wg.Add(1)
		run := func() {
			defer wg.Done()
			if ctx.Err() == nil {
				fn(i)
			}
		}
		select {
		case p.tasks <- task{fn: run, enqueued: time.Now()}:
		default:
			p.ran.Add(1)
			run()
		}
	}
	wg.Wait()
	return ctx.Err()
}

// Run runs worker-loop bodies: fn(0)..fn(workers-1) where workers =
// min(p.Workers(), limit). Engines whose workers keep private per-worker
// state (one heap per (worker, query) pair, Sec. 3.2.1) use Run with an
// atomic work counter inside fn instead of Map's one-task-per-item shape.
func (p *Pool) Run(ctx context.Context, limit int, fn func(worker int)) (workers int, err error) {
	workers = limit
	if p != nil && p.cfg.Workers < workers {
		workers = p.cfg.Workers
	}
	if workers < 1 {
		workers = 1
	}
	return workers, p.Map(ctx, workers, fn)
}

// Admit reserves an in-flight query slot, blocking while the pool is at
// MaxInflight and the wait queue has room, failing fast with ErrRejected
// when it does not, and returning ctx's error if the context ends first.
// Callers must invoke the returned release exactly once. Admission is
// taken once per top-level query — internal sub-queries (filter
// strategies, multi-vector rounds, fused fallbacks) run under the
// top-level slot, so a query can never deadlock against itself.
func (p *Pool) Admit(ctx context.Context) (release func(), err error) {
	if p == nil {
		return func() {}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case p.sem <- struct{}{}:
		return p.release, nil
	default:
	}
	if int(p.waiting.Add(1)) > p.cfg.AdmitQueue {
		p.waiting.Add(-1)
		p.rejected.Add(1)
		return nil, ErrRejected
	}
	defer p.waiting.Add(-1)
	select {
	case p.sem <- struct{}{}:
		return p.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
