// Package batchform coalesces concurrent single-query searches into small
// compatible batches executed through the cache-aware tile kernels — the
// paper's Fig. 11 / Eq. (1) offline batching win applied to live serving.
//
// Batching is supply-driven: a Former owns one run slot per exec-pool
// worker. A query that finds a slot free takes it and runs alone at once,
// on the per-query path. A query that finds every slot taken parks beside
// the compatible queries already waiting, and a slot that frees goes
// straight to the oldest parked group, which runs as one batch. Nothing
// waits on a timer: a query waits only for a busy core, and a batch is made
// of queries that were waiting for one anyway. Each query's own
// cancellation is honored throughout.
package batchform

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// Key is a query's compatibility class: only queries with identical keys
// may share a batch, because a formed batch executes as ONE plan — same
// collection, vector field, metric kernel, K, and index search knobs.
// Filter discriminates filter strategies; plain vector queries leave it
// empty and filtered paths either bypass the former entirely or use a
// distinct non-empty value, so a filtered query can never be co-batched
// with an unfiltered one.
type Key struct {
	Collection string
	Field      int
	Dim        int
	Metric     string
	K          int
	Nprobe     int
	Ef         int
	SearchL    int
	Filter     string
}

// outcome is what a batch run delivers to one item.
type outcome struct {
	results []topk.Result
	err     error
}

// Item is one query riding through the former. The submitting goroutine
// blocks in Submit until the batch runner delivers an Outcome — or until
// its own context dies, in which case it abandons the item and the late
// delivery lands in the buffered channel as garbage (the runner never
// blocks on an abandoned item, and co-batched peers are unaffected).
type Item struct {
	ctx   context.Context
	query []float32
	enq   time.Time
	seq   uint64 // arrival order among parked queries: the hand-off picks the oldest
	occ   int
	done  chan outcome
	once  sync.Once
}

// NewItem wraps a query for direct batch execution outside the former
// (core's SearchBatchCtx drives the same Runner deterministically). The
// item behaves exactly like a parked one.
func NewItem(ctx context.Context, query []float32) *Item {
	return &Item{ctx: ctx, query: query, done: make(chan outcome, 1)}
}

// Context returns the submitting query's context. Runners consult it to
// skip dead members (Live) and to return the right per-query error.
func (it *Item) Context() context.Context { return it.ctx }

// Query returns the query vector of this batch member.
func (it *Item) Query() []float32 { return it.query }

// Live reports whether the submitting query is still waiting: a cancelled
// query is simply skipped — never aborting co-batched peers.
func (it *Item) Live() bool { return it.ctx.Err() == nil }

// Deliver hands this item its results or error. Only the first call
// counts; the former backstops runners that miss a member (see runBatch)
// so a bug surfaces as an error, not a hung query.
func (it *Item) Deliver(res []topk.Result, err error) {
	it.once.Do(func() { it.done <- outcome{results: res, err: err} })
}

// Outcome returns the delivered result plus the occupancy of the batch the
// item rode in. Only valid after the Runner returned; Submit does the
// blocking wait for parked items.
func (it *Item) Outcome() ([]topk.Result, int, error) {
	select {
	case out := <-it.done:
		return out.results, it.occ, out.err
	default:
		return nil, it.occ, errMissedSlot
	}
}

var errMissedSlot = errors.New("batchform: runner delivered no result for a batch member")

// Runner executes one formed batch and must Deliver to every item. ctx is
// the joined batch context: cancelled only once EVERY member's context is
// done, so one cancelled member never aborts its co-batched peers while a
// fully-abandoned batch still stops scanning promptly.
type Runner func(ctx context.Context, key Key, items []*Item)

// Config sets up a Former. Zero values mean defaults.
type Config struct {
	// Slots is how many queries or formed batches run at once — the exec
	// pool's worker count, so a query parks only when every core is busy
	// (default 1).
	Slots int
	// MaxBatch caps a formed batch (default 16; the tile kernels carve the
	// batch into register blocks of 4 downstream). Members past it stay
	// parked for the next free slot.
	MaxBatch int
	// Obs receives the vectordb_batchform_* series; nil disables scraping.
	Obs *obs.Registry
	// Collection labels this former's metric series.
	Collection string
	// Run executes formed batches. Required.
	Run Runner
}

// Former runs compatible concurrent queries as batches when the cores are
// busy. One Former serves one collection; Submit is safe for any number of
// goroutines.
type Former struct {
	cfg Config
	met *metrics

	mu     sync.Mutex
	groups map[Key][]*Item // parked queries by key, oldest first
	busy   int             // slots taken by solo queries and running batches
	seq    uint64          // last arrival stamp handed to a parked query
	closed bool

	pending atomic.Int64 // parked queries (vectordb_batchform_pending)
}

// New builds a Former. Run is required; everything else defaults.
func New(cfg Config) *Former {
	if cfg.Run == nil {
		panic("batchform: Config.Run is required")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 1
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	f := &Former{
		cfg:    cfg,
		groups: map[Key][]*Item{},
		met:    newMetrics(cfg.Obs, cfg.Collection),
	}
	cfg.Obs.GaugeFunc("vectordb_batchform_pending", f.pending.Load, "collection", cfg.Collection)
	return f
}

// Pending returns the number of parked queries (the value behind
// vectordb_batchform_pending).
func (f *Former) Pending() int { return int(f.pending.Load()) }

// Submit runs one query and returns its top-k plus the occupancy of the
// batch it rode in (0 when it ran alone). With a slot free — or the former
// closed — solo runs the query's own per-query path on the caller's
// goroutine at once. With every slot taken the query parks until a freed
// slot runs its group, or until ctx dies; only that wait is traced, as
// the batch_form span on tr.
func (f *Former) Submit(ctx context.Context, key Key, query []float32, tr *obs.Trace, solo func() ([]topk.Result, error)) ([]topk.Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	f.mu.Lock()
	if f.closed || f.busy < f.cfg.Slots {
		slot := !f.closed
		if slot {
			f.busy++
		}
		f.mu.Unlock()
		return f.runSolo(slot, solo)
	}
	f.seq++
	it := &Item{ctx: ctx, query: query, enq: time.Now(), seq: f.seq, done: make(chan outcome, 1)}
	f.groups[key] = append(f.groups[key], it)
	f.pending.Add(1)
	f.mu.Unlock()
	f.met.batched.Inc()
	sp := tr.StartSpan("batch_form")
	defer sp.End()
	select {
	case out := <-it.done:
		return out.results, it.occ, out.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// runSolo runs one query on the per-query path, returning its slot (if it
// took one) however solo ends.
func (f *Former) runSolo(slot bool, solo func() ([]topk.Result, error)) ([]topk.Result, int, error) {
	f.met.passthrough.Inc()
	if slot {
		defer f.release()
	}
	res, err := solo()
	return res, 0, err
}

// release returns a solo query's slot. If queries are parked the slot
// passes straight to the oldest group, which runs on its own goroutine:
// the releasing caller is owed its return.
func (f *Former) release() {
	if key, items := f.handOff(); items != nil {
		go f.drain(key, items)
	}
}

// drain runs handed-off batches while queries stay parked, holding one
// slot throughout, and frees it once none are left.
func (f *Former) drain(key Key, items []*Item) {
	for items != nil {
		f.runBatch(key, items, "slot")
		key, items = f.handOff()
	}
}

// handOff is where a finishing holder gives up its slot. With no query
// parked the slot is freed; otherwise it stays taken and the oldest group
// — the one whose first member arrived first — is detached, at most
// MaxBatch members of it, for the holder to run. Leftover members stay
// parked in arrival order.
func (f *Former) handOff() (Key, []*Item) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var key Key
	var oldest []*Item
	for k, items := range f.groups {
		if oldest == nil || items[0].seq < oldest[0].seq {
			key, oldest = k, items
		}
	}
	if oldest == nil {
		f.busy--
		return Key{}, nil
	}
	n := min(len(oldest), f.cfg.MaxBatch)
	if n == len(oldest) {
		delete(f.groups, key)
	} else {
		f.groups[key] = oldest[n:]
	}
	f.pending.Add(-int64(n))
	return key, oldest[:n:n]
}

// runBatch executes one formed batch on the calling goroutine — a slot
// holder's, or Close's.
func (f *Former) runBatch(key Key, items []*Item, trigger string) {
	now := time.Now()
	for _, it := range items {
		it.occ = len(items)
		f.met.wait.Observe(now.Sub(it.enq))
	}
	f.met.batch(trigger).Inc()
	f.met.occupancy(len(items)).Inc()
	ctx, stop := joinedContext(items)
	defer stop()
	f.cfg.Run(ctx, key, items)
	for _, it := range items {
		it.Deliver(nil, errMissedSlot)
	}
}

// joinedContext derives the batch's execution context: cancelled only when
// EVERY member's context is done. One cancelled query therefore never
// aborts co-batched peers, while a fully-abandoned batch stops promptly.
func joinedContext(items []*Item) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var left atomic.Int64
	left.Store(int64(len(items)))
	down := func() {
		if left.Add(-1) == 0 {
			cancel()
		}
	}
	stops := make([]func() bool, 0, len(items))
	for _, it := range items {
		// Members already dead at formation are counted synchronously
		// (AfterFunc would fire on its own goroutine, leaving a batch of
		// all-cancelled members briefly uncancelled and racy to test); a
		// member that dies between the check and the registration simply
		// takes the AfterFunc path, so nothing is counted twice.
		if it.ctx.Err() != nil {
			down()
			continue
		}
		stops = append(stops, context.AfterFunc(it.ctx, down))
	}
	return ctx, func() {
		for _, s := range stops {
			s()
		}
		cancel()
	}
}

// Close runs every parked group (members still get their results) and
// turns the former into a permanent pass-through. Slots still held are
// returned by their holders as they finish. Safe to call twice.
func (f *Former) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	groups := f.groups
	f.groups = nil
	for _, items := range groups {
		f.pending.Add(-int64(len(items)))
	}
	f.mu.Unlock()
	for key, items := range groups {
		f.runBatch(key, items, "close")
	}
}

// metrics is the former's resolved vectordb_batchform_* handles, labeled
// by collection (same once-resolved pattern as core's colMetrics; every
// handle works unregistered when reg is nil).
type metrics struct {
	reg  *obs.Registry
	name string

	batched     *obs.Counter   // queries that parked
	passthrough *obs.Counter   // queries run alone on the per-query path
	wait        *obs.Histogram // time parked, until a slot ran the batch
}

func newMetrics(reg *obs.Registry, name string) *metrics {
	reg.Help("vectordb_batchform_queries_total", "Queries entering the batch former, by path (batched: parked for a slot; passthrough: ran alone).")
	reg.Help("vectordb_batchform_batches_total", "Formed batches, by trigger (slot, close).")
	reg.Help("vectordb_batchform_occupancy_total", "Formed batches, by member count at formation.")
	reg.Help("vectordb_batchform_wait_seconds", "Time a query spent parked waiting for a run slot.")
	reg.Help("vectordb_batchform_pending", "Queries parked waiting for a run slot.")
	return &metrics{
		reg:         reg,
		name:        name,
		batched:     reg.Counter("vectordb_batchform_queries_total", "collection", name, "path", "batched"),
		passthrough: reg.Counter("vectordb_batchform_queries_total", "collection", name, "path", "passthrough"),
		wait:        reg.Histogram("vectordb_batchform_wait_seconds", nil, "collection", name),
	}
}

// batch returns the per-trigger formed-batch counter.
func (m *metrics) batch(trigger string) *obs.Counter {
	return m.reg.Counter("vectordb_batchform_batches_total", "collection", m.name, "trigger", trigger)
}

// occupancy returns the formed-batch counter for one occupancy size.
func (m *metrics) occupancy(n int) *obs.Counter {
	return m.reg.Counter("vectordb_batchform_occupancy_total", "collection", m.name, "size", strconv.Itoa(n))
}
