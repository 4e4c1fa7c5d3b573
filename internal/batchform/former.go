package batchform

import (
	"context"
	"errors"
	"math"
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
	// Venue is the planner's placement decision for the query; queries may
	// only share a batch when placed on the same venue, so a formed batch
	// never mixes execution venues.
	Venue string
}

// outcome is what a batch run delivers to one item.
type outcome struct {
	results []topk.Result
	err     error
}

// Item is one query riding through the former. The submitting goroutine
// blocks in Submit until the batch runner delivers an Outcome — or until
// its own context dies, in which case it abandons the slot and the late
// delivery lands in the buffered channel as garbage (the runner never
// blocks on an abandoned item, and co-batched peers are unaffected).
type Item struct {
	ctx   context.Context
	query []float32
	enq   time.Time
	occ   int
	done  chan outcome
	once  sync.Once
}

// NewItem wraps a query for direct batch execution outside the former
// (core's SearchBatchCtx drives the same Runner deterministically). The
// item behaves exactly like a coalesced one.
func NewItem(ctx context.Context, query []float32) *Item {
	return &Item{ctx: ctx, query: query, done: make(chan outcome, 1)}
}

// Context returns the submitting query's context. Runners consult it to
// skip dead slots (Live) and to return the right per-query error.
func (it *Item) Context() context.Context { return it.ctx }

// Query returns the query vector occupying this batch slot.
func (it *Item) Query() []float32 { return it.query }

// Live reports whether the submitting query is still waiting: a cancelled
// query's slot is simply skipped — never aborting co-batched peers.
func (it *Item) Live() bool { return it.ctx.Err() == nil }

// Deliver hands this item its results or error. Only the first call
// counts; the former backstops runners that miss a slot (see runBatch) so
// a bug surfaces as an error, not a hung query.
func (it *Item) Deliver(res []topk.Result, err error) {
	it.once.Do(func() { it.done <- outcome{results: res, err: err} })
}

// Outcome returns the delivered result plus the occupancy of the batch the
// item rode in. Only valid after the Runner returned; Submit does the
// blocking wait for coalesced items.
func (it *Item) Outcome() ([]topk.Result, int, error) {
	select {
	case out := <-it.done:
		return out.results, it.occ, out.err
	default:
		return nil, it.occ, errMissedSlot
	}
}

var errMissedSlot = errors.New("batchform: runner delivered no result for a batch slot")

// ErrPassThrough is Submit declining to batch (idle pool or closed
// former): the caller runs the query on the ordinary per-query path, which
// at zero load has zero added latency — the auto-tuner's idle contract.
var ErrPassThrough = errors.New("batchform: pass through")

// Runner executes one formed batch and must Deliver to every item. ctx is
// the joined batch context: cancelled only once EVERY member's context is
// done, so one cancelled member never aborts its co-batched peers while a
// fully-abandoned batch still stops scanning promptly.
type Runner func(ctx context.Context, key Key, items []*Item)

// Config tunes a Former. Zero values mean defaults.
type Config struct {
	// MaxBatch caps a group's size; a group also trips early once it
	// reaches the live concurrency (see Submit), so MaxBatch only binds
	// under deep backlog (default 16; the tile kernels carve the batch
	// into register blocks of 4 downstream).
	MaxBatch int
	// MinWindow and MaxWindow bound the coalescing window. The live
	// window tunes between them from Load: backlog 1 pays MinWindow
	// (default 500µs), backlog ≥ LoadScale pays MaxWindow (default 2ms),
	// linear in between; zero backlog passes through entirely.
	MinWindow time.Duration
	MaxWindow time.Duration
	// LoadScale is the backlog that saturates the window (default 16).
	LoadScale int
	// Clock is the former's only time source (nil means Wall).
	Clock Clock
	// Load reports the live read-path backlog — queued segment tasks plus
	// queries waiting or running, excluding the submitter itself. Nil
	// means always idle, i.e. a former that always passes through.
	Load func() int
	// Obs receives the vectordb_batchform_* series; nil disables scraping.
	Obs *obs.Registry
	// Collection labels this former's metric series.
	Collection string
	// Run executes formed batches. Required.
	Run Runner
}

// group is one forming batch: the items accumulated so far for a key, the
// window timer racing them, and (in bootstrap mode) the arrival-gap timer
// that closes the group as soon as the supply of co-arriving queries dries
// up. gen is a former-wide generation stamp so a stale timer (its group
// already taken by a size trip) fires into nothing. deferred records a
// timer close that arrived while a sibling batch was executing: the group
// keeps accumulating and runs when that batch completes (see fire).
type group struct {
	items    []*Item
	timer    Timer
	gap      Timer
	gen      uint64
	trip     int // size trip; sticky-max so a low-trip joiner cannot chop a forming batch
	deferred bool
}

// Bootstrap tuning: when the pool's load signal reads zero, concurrency
// can still be hiding in the runtime scheduler — on few-core machines,
// CPU-bound queries serialize without ever waiting in the pool, so
// Inflight stays at 1 no matter how many clients are live. The former
// discovers that concurrency by probing: after denseRunNeed arrivals
// spaced closer than half MinWindow, one query is held in a forming
// group. A probing submitter blocks, which is exactly what lets the
// scheduler surface any hidden peer — the peer joins the group and trips
// it at size 2 within microseconds. A probe that stays alone costs one
// arrival-gap wait (MinWindow/gapDiv) and backs off exponentially, so a
// genuinely sequential client pays a vanishing amortized tax.
const (
	denseRunNeed    = 4    // close-spaced arrivals before the first probe
	probeBackoffMin = 16   // idle submits between probes after one failure
	probeBackoffMax = 8192 // cap on the probe backoff
	// boostTTLWindows sets the boost lifetime in MaxWindow units. It must
	// comfortably exceed a full batch's execution time (MaxBatch × the
	// per-query cost), or the boost expires while a batch is still running
	// and its members re-arrive to a former that has forgotten them; a
	// stale boost costs at most boostMissMax gap-closed singletons.
	boostTTLWindows = 64
	boostMissMax    = 3 // consecutive singletons before boost drops
	gapDiv          = 4 // arrival-gap close = MinWindow / gapDiv
)

// Former coalesces compatible concurrent queries into batches. One Former
// serves one collection; Submit is safe for any number of goroutines.
type Former struct {
	cfg   Config
	clock Clock
	met   *metrics

	mu      sync.Mutex
	groups  map[Key]*group
	running map[Key]int // batches currently executing, per key (chaining)
	gen     uint64
	closed  bool

	window  atomic.Int64 // last tuned window, nanoseconds
	pending atomic.Int64 // items currently waiting in forming groups

	// Bootstrap state for pool-invisible concurrency (see the constants
	// above). boostOcc/boostAt carry the occupancy feedback: a formed
	// batch with ≥2 members proves co-arriving queries exist, so batching
	// stays on without re-probing until the signal goes stale.
	lastArrival atomic.Int64 // clock nanos of the previous idle-pool Submit
	denseRun    atomic.Int64 // consecutive close-spaced idle arrivals
	cooldown    atomic.Int64 // idle submits left before the next probe
	backoff     atomic.Int64 // cooldown reload, doubled per failed probe
	boostOcc    atomic.Int64 // last formed occupancy ≥ 2, else 0
	boostAt     atomic.Int64 // clock nanos when boostOcc was observed
	boostMiss   atomic.Int64 // consecutive singleton batches while boosted
}

// New builds a Former. Run is required; everything else defaults.
func New(cfg Config) *Former {
	if cfg.Run == nil {
		panic("batchform: Config.Run is required")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.MinWindow <= 0 {
		cfg.MinWindow = 500 * time.Microsecond
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 2 * time.Millisecond
	}
	if cfg.MinWindow > cfg.MaxWindow {
		cfg.MinWindow = cfg.MaxWindow
	}
	if cfg.LoadScale <= 0 {
		cfg.LoadScale = 16
	}
	if cfg.Clock == nil {
		cfg.Clock = Wall()
	}
	f := &Former{
		cfg:     cfg,
		clock:   cfg.Clock,
		groups:  map[Key]*group{},
		running: map[Key]int{},
		met:     newMetrics(cfg.Obs, cfg.Collection),
	}
	// A first arrival must never look dense: park the last-arrival stamp
	// far in the past (half-range, so the subtraction cannot overflow).
	f.lastArrival.Store(math.MinInt64 / 2)
	f.backoff.Store(probeBackoffMin)
	f.met.registerGauges(f)
	return f
}

// Window returns the last auto-tuned coalescing window.
func (f *Former) Window() time.Duration { return time.Duration(f.window.Load()) }

// Pending returns the number of queries currently waiting in forming
// groups (the value behind vectordb_batchform_pending).
func (f *Former) Pending() int { return int(f.pending.Load()) }

// tune recomputes the window and the size trip from the live backlog.
// Idle → window 0 (pass through, unless the bootstrap detects pool-
// invisible concurrency). The size trip is the backlog plus the submitter
// itself, capped at MaxBatch: a group cannot organically exceed the
// number of queries concurrently in the system, so waiting past that
// point buys occupancy that is not coming — trip immediately instead. The
// window then only backstops stragglers (mixed-compatibility loads whose
// groups never reach the trip). A non-zero gap switches the group to
// arrival-gap closing: each join rearms a short timer and the group runs
// when the supply of co-arriving queries dries up, so occupancy discovers
// itself without knowing the concurrency in advance.
func (f *Former) tune() (window time.Duration, trip int, gap time.Duration) {
	load := 0
	if f.cfg.Load != nil {
		load = f.cfg.Load()
	}
	if load <= 0 {
		boost, probe := f.bootstrap()
		switch {
		case boost:
			// Supply is proven. Trip at the discovered supply (last
			// occupancy) plus 50% headroom so growth is still noticed —
			// tripping at MaxBatch outright would stall every batch a full
			// window whenever the live supply is smaller. The arrival-gap
			// close detects the supply drying up mid-group; it is generous
			// (MinWindow/gapDiv) because between batches the woken members
			// re-join with per-submit overhead spacing, and a too-tight gap
			// reads that spacing as exhaustion.
			window = f.cfg.MinWindow
			f.window.Store(int64(window))
			return window, f.boostTrip(), f.cfg.MinWindow / gapDiv
		case probe:
			// Supply unproven: hold the prober no longer than the arrival
			// gap. One hidden peer joining trips the pair immediately.
			window = f.cfg.MinWindow
			f.window.Store(int64(window))
			return window, 2, f.cfg.MinWindow / gapDiv
		}
		f.window.Store(0)
		return 0, 2, 0
	}
	window = f.cfg.MaxWindow
	if load < f.cfg.LoadScale {
		span := f.cfg.MaxWindow - f.cfg.MinWindow
		window = f.cfg.MinWindow + span*time.Duration(load-1)/time.Duration(f.cfg.LoadScale-1)
	}
	f.window.Store(int64(window))
	trip = load + 1
	if trip > f.cfg.MaxBatch {
		trip = f.cfg.MaxBatch
	}
	if trip < 2 {
		trip = 2
	}
	// The pool signal undercounts when queries run inline (few-core boxes:
	// load flickers 0↔1 while dozens of clients are scheduler-hidden). A
	// fresh boost is direct evidence of real batch supply — don't let a
	// momentary load=1 reading chop groups at 2.
	if bt := 0; f.boostFresh() {
		if bt = f.boostTrip(); bt > trip {
			trip = bt
		}
	}
	return window, trip, 0
}

// boostTrip is the size trip under a fresh boost: the discovered supply
// plus 50% headroom, clamped to [2, MaxBatch].
func (f *Former) boostTrip() int {
	t := int(f.boostOcc.Load())
	t += t / 2
	if t > f.cfg.MaxBatch {
		t = f.cfg.MaxBatch
	}
	if t < 2 {
		t = 2
	}
	return t
}

// boostFresh reports whether recent occupancy feedback proves co-arriving
// queries (see bootstrap).
func (f *Former) boostFresh() bool {
	return f.boostOcc.Load() >= 2 &&
		f.clock.Now().UnixNano()-f.boostAt.Load() <= int64(boostTTLWindows*f.cfg.MaxWindow)
}

// bootstrap reports whether an idle-pool Submit should batch anyway.
// Recent occupancy ≥ 2 is proof of co-arriving queries (boost); otherwise
// a run of close-spaced arrivals earns one probe, rate-limited by the
// backoff so sequential clients are left alone.
func (f *Former) bootstrap() (boost, probe bool) {
	now := f.clock.Now().UnixNano()
	// Stamp every arrival — including boosted ones — so the dense-run
	// detector is already warm when the boost drops and re-entry does not
	// have to rebuild its arrival history from scratch.
	gap := now - f.lastArrival.Swap(now)
	if f.boostFresh() {
		return true, false
	}
	if gap > int64(f.cfg.MinWindow/2) {
		f.denseRun.Store(0)
		return false, false
	}
	if f.denseRun.Add(1) < denseRunNeed {
		return false, false
	}
	if f.cooldown.Add(-1) > 0 {
		return false, false
	}
	f.cooldown.Store(f.backoff.Load())
	f.denseRun.Store(0)
	return false, true
}

// Submit offers one query to the former and blocks until its batch has run
// (or ctx dies first, abandoning the slot). It returns the query's top-k
// plus the occupancy of the batch it rode in. ErrPassThrough means the
// former declined and the caller must run the query itself.
func (f *Former) Submit(ctx context.Context, key Key, query []float32) ([]topk.Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	window, trip, gap := f.tune()
	it, tripped := f.enqueue(ctx, key, query, window, trip, gap)
	if it == nil {
		f.met.passthrough.Inc()
		return nil, 0, ErrPassThrough
	}
	if tripped != nil {
		// This submitter completed the batch: it runs the whole group
		// inline, then collects its own slot like everyone else.
		f.runBatch(key, tripped, "size")
	}
	select {
	case out := <-it.done:
		return out.results, it.occ, out.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// enqueue adds one query to its forming group under the lock. A nil item
// means pass through; a non-nil tripped slice means the group hit the size
// trip and the caller must run it. A non-zero gap (bootstrap mode) rearms
// the group's arrival-gap timer on every join, closing the group as soon
// as no further query arrives within the gap.
func (f *Former) enqueue(ctx context.Context, key Key, query []float32, window time.Duration, trip int, gap time.Duration) (it *Item, tripped []*Item) {
	f.mu.Lock()
	defer f.mu.Unlock()
	g := f.groups[key]
	if f.closed || (window <= 0 && g == nil) {
		return nil, nil
	}
	it = &Item{ctx: ctx, query: query, enq: f.clock.Now(), done: make(chan outcome, 1)}
	if g == nil {
		f.gen++
		g = &group{gen: f.gen, trip: trip}
		f.groups[key] = g
	} else if trip > g.trip {
		// The trip is a property of the group, raised but never lowered by
		// joiners: a probe submitter (trip 2) landing in a boost group
		// (trip MaxBatch) must not chop the forming batch at 2.
		g.trip = trip
	}
	g.items = append(g.items, it)
	f.met.batched.Inc()
	if len(g.items) >= g.trip {
		f.pending.Add(1)
		return it, f.takeLocked(key, g)
	}
	gen := g.gen
	if g.timer == nil {
		g.timer = f.clock.AfterFunc(f.clampWindow(ctx, window), func() { f.fire(key, gen) })
	}
	if gap > 0 {
		if g.gap != nil {
			g.gap.Stop()
		}
		g.gap = f.clock.AfterFunc(f.clampWindow(ctx, gap), func() { f.fire(key, gen) })
	}
	// Counted only once its timers are armed: Pending is read without the
	// lock, and a query seen parked must already have its close scheduled.
	f.pending.Add(1)
	return it, nil
}

// clampWindow keeps the coalesce wait well inside the submitting query's
// deadline: batching trades a bounded sliver of latency for throughput and
// must never convert a live query into a timeout.
func (f *Former) clampWindow(ctx context.Context, w time.Duration) time.Duration {
	dl, ok := ctx.Deadline()
	if !ok {
		return w
	}
	if rem := dl.Sub(f.clock.Now()) / 2; rem < w {
		w = rem
	}
	if w < 0 {
		w = 0
	}
	return w
}

// takeLocked detaches a forming group for execution and records the key as
// having a batch in flight (chaining). Caller holds f.mu.
func (f *Former) takeLocked(key Key, g *group) []*Item {
	if g.timer != nil {
		g.timer.Stop()
	}
	if g.gap != nil {
		g.gap.Stop()
	}
	delete(f.groups, key)
	f.running[key]++
	return g.items
}

// fire is the window trip, run by the group's timer. gen guards against a
// stale timer whose group was already taken by a size trip (or replaced by
// a fresh group under the same key). If a batch for this key is currently
// executing, the close is deferred instead (group commit): the group keeps
// accumulating joiners while the CPU is busy and runs when the in-flight
// batch completes, so a busy machine forms full batches rather than the
// 2–3 members a wall-clock timer happens to catch between runs.
func (f *Former) fire(key Key, gen uint64) {
	f.mu.Lock()
	g := f.groups[key]
	if g == nil || g.gen != gen {
		f.mu.Unlock()
		return
	}
	if f.running[key] > 0 {
		g.deferred = true
		f.mu.Unlock()
		return
	}
	items := f.takeLocked(key, g)
	f.mu.Unlock()
	f.runBatch(key, items, "window")
}

// runBatch executes one formed batch on the calling goroutine — the
// size-tripping submitter, the window timer, or Close.
func (f *Former) runBatch(key Key, items []*Item, trigger string) {
	f.pending.Add(-int64(len(items)))
	now := f.clock.Now()
	for _, it := range items {
		it.occ = len(items)
		f.met.wait.Observe(now.Sub(it.enq))
	}
	// Occupancy feedback for the bootstrap: a batch that formed proves (or
	// disproves) co-arriving queries. ≥2 keeps batching on without probes.
	// Singletons happen at the tail of every burst, so one alone does not
	// drop the boost — boostMissMax in a row do, and back the next probe
	// off.
	if occ := len(items); occ >= 2 {
		f.boostOcc.Store(int64(occ))
		f.boostAt.Store(now.UnixNano())
		f.boostMiss.Store(0)
		f.backoff.Store(probeBackoffMin)
	} else if f.boostMiss.Add(1) >= boostMissMax || f.boostOcc.Load() == 0 {
		f.boostOcc.Store(0)
		if b := 2 * f.backoff.Load(); b <= probeBackoffMax {
			f.backoff.Store(b)
		}
	}
	f.met.batch(trigger).Inc()
	f.met.occupancy(len(items)).Inc()
	ctx, stop := joinedContext(items)
	defer stop()
	f.cfg.Run(ctx, key, items)
	for _, it := range items {
		it.Deliver(nil, errMissedSlot)
	}
	// Chain: if a timer close was deferred while this batch ran, the group
	// has been accumulating the whole time — run it now on its own
	// goroutine (never the submitter's, whose caller is owed a return).
	f.mu.Lock()
	if f.running[key]--; f.running[key] <= 0 {
		delete(f.running, key)
	}
	var chained []*Item
	if g := f.groups[key]; g != nil && g.deferred {
		chained = f.takeLocked(key, g)
	}
	f.mu.Unlock()
	if chained != nil {
		go f.runBatch(key, chained, "chain")
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

// Close flushes every forming group (members still get their results) and
// turns the former into a permanent pass-through. Safe to call twice.
func (f *Former) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	type flush struct {
		key   Key
		items []*Item
	}
	var fl []flush
	for key, g := range f.groups {
		items := f.takeLocked(key, g)
		if len(items) > 0 {
			fl = append(fl, flush{key, items})
		}
	}
	f.mu.Unlock()
	for _, b := range fl {
		f.runBatch(b.key, b.items, "close")
	}
}

// metrics is the former's resolved vectordb_batchform_* handles, labeled
// by collection (same once-resolved pattern as core's colMetrics; every
// handle works unregistered when reg is nil).
type metrics struct {
	reg  *obs.Registry
	name string

	batched     *obs.Counter   // queries that entered a forming group
	passthrough *obs.Counter   // queries declined to the per-query path
	wait        *obs.Histogram // coalesce wait, enqueue → batch formed
}

func newMetrics(reg *obs.Registry, name string) *metrics {
	reg.Help("vectordb_batchform_queries_total", "Queries entering the batch former, by path (batched vs passthrough).")
	reg.Help("vectordb_batchform_batches_total", "Formed batches, by trigger (size, window, chain, close).")
	reg.Help("vectordb_batchform_occupancy_total", "Formed batches, by member count at formation.")
	reg.Help("vectordb_batchform_wait_seconds", "Coalesce wait from enqueue to batch formation.")
	reg.Help("vectordb_batchform_window_nanos", "Current auto-tuned coalescing window.")
	reg.Help("vectordb_batchform_pending", "Queries currently waiting in forming groups.")
	return &metrics{
		reg:         reg,
		name:        name,
		batched:     reg.Counter("vectordb_batchform_queries_total", "collection", name, "path", "batched"),
		passthrough: reg.Counter("vectordb_batchform_queries_total", "collection", name, "path", "passthrough"),
		wait:        reg.Histogram("vectordb_batchform_wait_seconds", nil, "collection", name),
	}
}

func (m *metrics) registerGauges(f *Former) {
	m.reg.GaugeFunc("vectordb_batchform_window_nanos", f.window.Load, "collection", m.name)
	m.reg.GaugeFunc("vectordb_batchform_pending", f.pending.Load, "collection", m.name)
}

// batch returns the per-trigger formed-batch counter.
func (m *metrics) batch(trigger string) *obs.Counter {
	return m.reg.Counter("vectordb_batchform_batches_total", "collection", m.name, "trigger", trigger)
}

// occupancy returns the formed-batch counter for one occupancy size.
func (m *metrics) occupancy(n int) *obs.Counter {
	return m.reg.Counter("vectordb_batchform_occupancy_total", "collection", m.name, "size", strconv.Itoa(n))
}
