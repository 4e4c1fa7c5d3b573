package stress

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"vectordb/internal/colstore"
	"vectordb/internal/core"
	"vectordb/internal/exec"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/obs/promtext"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Config tunes one stress run. Zero values mean defaults.
type Config struct {
	Seed      int64         // drives schedules, faults and verification sampling
	Writers   int           // mixed-workload goroutines (default 4)
	Searchers int           // search/snapshot/get goroutines (default 4)
	Duration  time.Duration // wall-clock run length before quiesce (default 300ms)
	Dim       int           // vector dimensionality (default 16)
	K         int           // top-k for searches (default 8)

	// MaxOpsPerWriter hard-caps each writer's schedule so a slow machine
	// cannot grow the collection without bound (default 50000).
	MaxOpsPerWriter int

	// Faults configures the injected object-store fault layer; the zero
	// value runs fault-free.
	Faults FaultConfig

	// Spill arms the out-of-core mode: sealed segments tier into
	// mmap-backed extent files under a run-private temp dir and spill to
	// the (fault-injected) object store, a tight mapped-bytes budget keeps
	// the LRU churning, and a background spiller goroutine force-demotes
	// mapped segments throughout the run so live queries keep promoting
	// cold segments back — through whatever faults are armed (default off).
	Spill bool

	// CancelRate is the probability that a searcher wraps a query in a
	// context that is cancelled or times out mid-flight (default 0: off).
	// Such a query must either complete normally or return the context's
	// error; anything else — and any goroutine or snapshot leaked by the
	// abandoned query — is an invariant violation.
	CancelRate float64

	// FilterRate is the probability that a searcher runs an
	// attribute-filtered search instead of a plain one (default 0: off).
	// Every entity's attribute is derived from its ID (id & 1023), so the
	// predicate is checkable from the result IDs alone: a returned ID whose
	// attribute falls outside the queried range is a violation, mid-flight
	// or quiesced.
	FilterRate float64

	// PlanCheck arms the query-planner mode (default off): searchers run
	// traced searches and verify every one carries a plan= decision, and
	// after quiesce the same workload is replayed back-to-back twice — on
	// a drained system the two plan sequences must be identical (the
	// planner is a function of the snapshot's shape and the queue-depth
	// bucket, and quiesce holds both still).
	PlanCheck bool

	// RecallFloor is the minimum average recall@K vs. a brute-force scan
	// over the surviving entities after quiesce (default 0.9).
	RecallFloor float64
	// RecallQueries is how many queries the recall check averages
	// (default 10).
	RecallQueries int
}

func (c *Config) defaults() {
	if c.Writers <= 0 {
		c.Writers = 4
	}
	if c.Searchers <= 0 {
		c.Searchers = 4
	}
	if c.Duration <= 0 {
		c.Duration = 300 * time.Millisecond
	}
	if c.Dim <= 0 {
		c.Dim = 16
	}
	if c.K <= 0 {
		c.K = 8
	}
	if c.MaxOpsPerWriter <= 0 {
		c.MaxOpsPerWriter = 50000
	}
	if c.RecallFloor <= 0 {
		c.RecallFloor = 0.9
	}
	if c.RecallQueries <= 0 {
		c.RecallQueries = 10
	}
}

// Report summarizes one run.
type Report struct {
	Inserted   int64 // acknowledged inserted rows
	Deleted    int64 // acknowledged deleted rows
	Searches   int64 // completed searches (writers + searchers)
	Filtered   int64 // completed attribute-filtered searches (FilterRate mode)
	Cancelled  int64 // searches that returned a context error (CancelRate mode)
	Flushes    int64 // explicit flush ops issued
	FlushErrs  int64 // flushes that surfaced an (injected) error
	IndexOps   int64 // manual index-build ops issued
	Injected   int64 // faults injected by the store layer
	Demoted    int64 // segments force-demoted by the spiller (Spill mode)
	Planned    int64 // traced searches whose plan= annotation was verified (PlanCheck mode)
	Tiered     int   // extent files under tier management at quiesce (Spill mode)
	FinalCount int   // collection Count() after quiesce
	Recall     float64
	Violations []string
}

func (r *Report) String() string {
	return fmt.Sprintf("inserted=%d deleted=%d searches=%d filtered=%d cancelled=%d flushes=%d flushErrs=%d injected=%d demoted=%d planned=%d tiered=%d final=%d recall=%.3f violations=%d",
		r.Inserted, r.Deleted, r.Searches, r.Filtered, r.Cancelled, r.Flushes, r.FlushErrs, r.Injected, r.Demoted, r.Planned, r.Tiered, r.FinalCount, r.Recall, len(r.Violations))
}

const (
	idShift      = 40 // entity ID = (writer+1)<<idShift | per-writer counter
	maxViolation = 20 // cap recorded violations; one is already a failure
)

// harness is the shared state of one run.
type harness struct {
	cfg    Config
	col    *core.Collection
	pool   *exec.Pool
	faults *FaultStore
	reg    *obs.Registry

	done chan struct{}

	mu         sync.Mutex
	violations []string

	inserted, deleted, searches, filtered, cancelled, flushes, flushErrs, indexOps, demoted, planned counter
}

type counter struct {
	mu sync.Mutex
	n  int64
}

func (c *counter) add(d int64) { c.mu.Lock(); c.n += d; c.mu.Unlock() }
func (c *counter) get() int64  { c.mu.Lock(); defer c.mu.Unlock(); return c.n }

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.violations) < maxViolation {
		h.violations = append(h.violations, fmt.Sprintf(format, args...))
	}
}

// writerState is one writer's private model of what the system has
// acknowledged. Only its owning goroutine touches it until after the
// WaitGroup join, so it needs no lock.
type writerState struct {
	live    []int64 // acked inserts not (acked-)deleted; order irrelevant
	deleted []int64 // acked deletes
	nextID  int64   // per-writer ID counter
}

// Run executes one seeded stress run and verifies its invariants. It
// returns a non-nil error when any invariant was violated; the Report is
// always returned for inspection.
//
//lint:allow testonly the harness's entry point: its runs are this package's tests (make stress)
func Run(cfg Config) (*Report, error) {
	cfg.defaults()

	// Start the execution pools before taking the goroutine baseline: the
	// shared pool's fixed worker set is process-wide and outlives every run,
	// and the run's own pool lives until Run returns, so neither must be
	// confused with a leak. The run's pool has two workers — two run slots,
	// fewer than the searchers — so on any host some queries queue and ride
	// a freed slot as batch peers, and with CancelRate some die queued.
	//
	// The run doubles as an observability stress: every query records into
	// reg (and the query log), searchers scrape concurrently — each scrape
	// checks the pool's run slots — and quiesce cross-checks the harness's
	// own accounting against the counters.
	exec.Default().Workers()
	reg := obs.NewRegistry()
	pool := exec.NewPool(exec.Config{Workers: 2, Obs: reg})
	defer pool.Close()
	baseGoroutines := runtime.NumGoroutine()

	faults := NewFaultStore(objstore.NewMemory(), cfg.Seed*7349+11, cfg.Faults)
	schema := core.Schema{
		VectorFields: []core.VectorField{{Name: "v", Dim: cfg.Dim, Metric: vec.L2}},
		AttrFields:   []string{"a"},
	}
	ccfg := core.Config{
		Exec:           pool,
		FlushRows:      64,
		FlushInterval:  25 * time.Millisecond, // background flusher on: more interleavings
		MergeFactor:    4,
		MaxSegmentRows: 1 << 14,
		IndexRows:      256,
		IndexType:      "IVF_FLAT",
		IndexParams:    map[string]string{"nlist": "8"},
		Obs:            reg,
		QueryLog:       obs.NewQueryLog(64, 32, time.Millisecond),
	}
	if cfg.Spill {
		// Out-of-core mode: a run-private extent dir and a mapped-bytes
		// budget of a few segments, so the LRU demotes continuously even
		// before the spiller piles on. A cold segment's copy is its segment object in
		// the fault-injected store, so every promotion rides its faults.
		dir, err := os.MkdirTemp("", "vectordb-stress-tier-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ccfg.TierDir = dir
		ccfg.TierMappedBytes = 512 << 10
	}
	col, err := core.NewCollection("stress", schema, faults, ccfg)
	if err != nil {
		return nil, err
	}

	h := &harness{cfg: cfg, col: col, pool: pool, faults: faults, reg: reg, done: make(chan struct{})}

	states := make([]*writerState, cfg.Writers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		states[w] = &writerState{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h.writer(w, states[w])
		}(w)
	}
	for s := 0; s < cfg.Searchers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h.searcher(s)
		}(s)
	}
	if cfg.Spill {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.spiller()
		}()
	}

	time.Sleep(cfg.Duration)
	close(h.done)
	wg.Wait()

	rep := &Report{
		Inserted:  h.inserted.get(),
		Deleted:   h.deleted.get(),
		Searches:  h.searches.get(),
		Filtered:  h.filtered.get(),
		Cancelled: h.cancelled.get(),
		Flushes:   h.flushes.get(),
		FlushErrs: h.flushErrs.get(),
		IndexOps:  h.indexOps.get(),
		Demoted:   h.demoted.get(),
		Planned:   h.planned.get(),
	}
	h.quiesce(states, rep)
	if err := col.Close(); err != nil {
		h.violate("close: %v", err)
	}
	h.checkGoroutines(baseGoroutines)
	h.batchformInvariants(rep)
	rep.Injected = faults.Injected()
	rep.Violations = h.violations
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("stress: %d invariant violation(s), first: %s", len(rep.Violations), rep.Violations[0])
	}
	return rep, nil
}

// writer executes its deterministic op stream until the run deadline.
func (h *harness) writer(w int, st *writerState) {
	stream := NewStream(h.cfg.Seed, w)
	lastSnap := int64(0)
	for ops := 0; ops < h.cfg.MaxOpsPerWriter; ops++ {
		select {
		case <-h.done:
			return
		default:
		}
		op := stream.Next()
		switch op.Kind {
		case OpInsert:
			ents := make([]core.Entity, op.N)
			ids := make([]int64, op.N)
			for i := range ents {
				st.nextID++
				id := int64(w+1)<<idShift | st.nextID
				ids[i] = id
				ents[i] = core.Entity{
					ID:      id,
					Vectors: [][]float32{VectorForID(id, h.cfg.Dim)},
					Attrs:   []int64{id & 1023},
				}
			}
			if err := h.col.Insert(ents); err != nil {
				h.violate("writer %d: insert failed: %v", w, err)
				return
			}
			st.live = append(st.live, ids...)
			h.inserted.add(int64(op.N))
		case OpDelete:
			n := op.N
			if n > len(st.live) {
				n = len(st.live)
			}
			if n == 0 {
				continue
			}
			victims := make([]int64, 0, n)
			arg := op.Arg
			for i := 0; i < n; i++ {
				j := int(arg % uint64(len(st.live)))
				arg = arg*6364136223846793005 + 1442695040888963407
				victims = append(victims, st.live[j])
				st.live[j] = st.live[len(st.live)-1]
				st.live = st.live[:len(st.live)-1]
			}
			if err := h.col.Delete(victims); err != nil {
				h.violate("writer %d: delete failed: %v", w, err)
				return
			}
			st.deleted = append(st.deleted, victims...)
			h.deleted.add(int64(len(victims)))
		case OpSearch:
			h.search(fmt.Sprintf("writer %d", w), int64(op.Arg>>1))
		case OpFlush:
			h.flushes.add(1)
			if err := h.col.Flush(); err != nil {
				h.flushErrs.add(1)
				if !errors.Is(err, ErrInjected) {
					h.violate("writer %d: non-injected flush error: %v", w, err)
				}
			}
		case OpSnapshot:
			lastSnap = h.snapshotProbe(fmt.Sprintf("writer %d", w), lastSnap)
		case OpIndex:
			h.indexOps.add(1)
			// Index failures are non-fatal by design (scan remains), but the
			// call must not race with merges/flushes — that is what this op
			// exercises.
			_ = h.col.BuildIndex("v", "IVF_FLAT", map[string]string{"nlist": "8"})
		}
	}
}

// searcher hammers the read path: searches, snapshot probes, point gets.
func (h *harness) searcher(s int) {
	rng := rand.New(rand.NewSource(int64(uint64(h.cfg.Seed) ^ uint64(s+1000)*0x9E3779B97F4A7C15)))
	who := fmt.Sprintf("searcher %d", s)
	lastSnap := int64(0)
	for {
		select {
		case <-h.done:
			return
		default:
		}
		switch p := rng.Intn(10); {
		case p < 5:
			switch {
			case h.cfg.CancelRate > 0 && rng.Float64() < h.cfg.CancelRate:
				h.searchCancel(who, rng)
			case h.cfg.FilterRate > 0 && rng.Float64() < h.cfg.FilterRate:
				h.searchFiltered(who, rng)
			case h.cfg.PlanCheck && rng.Intn(2) == 0:
				h.searchPlanned(who, rng)
			default:
				h.search(who, rng.Int63())
			}
		case p < 7:
			lastSnap = h.snapshotProbe(who, lastSnap)
		case p < 8:
			h.scrapeGate(who)
		default:
			// Probe a random plausible ID. Existence is timing-dependent
			// mid-run, but any returned entity must be byte-identical to
			// what was inserted — a torn or cross-wired row is a bug.
			id := int64(rng.Intn(h.cfg.Writers)+1)<<idShift | int64(1+rng.Intn(4096))
			if e, ok := h.col.Get(id); ok {
				h.checkVector(who, id, e.Vectors[0])
			}
		}
	}
}

// scrapeGate scrapes concurrently with the writers — the exposition path
// must tolerate racing counter/histogram updates — and checks the one read
// gate in what it read: never more queries holding a run slot than the
// pool has workers.
func (h *harness) scrapeGate(who string) {
	var buf bytes.Buffer
	if err := h.reg.WritePrometheus(&buf); err != nil {
		h.violate("%s: metrics scrape failed: %v", who, err)
		return
	}
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		h.violate("%s: exposition does not parse: %v", who, err)
		return
	}
	gauge := map[string]float64{}
	for _, f := range fams {
		if len(f.Samples) == 1 {
			gauge[f.Name] = f.Samples[0].Value
		}
	}
	inflight, workers := gauge["vectordb_exec_inflight"], gauge["vectordb_exec_workers"]
	if workers == 0 || inflight > workers {
		h.violate("%s: vectordb_exec_inflight %v on vectordb_exec_workers %v", who, inflight, workers)
	}
}

// spiller applies memory pressure for the run's whole duration: every few
// milliseconds it force-demotes all unpinned mapped segments to cold, so
// concurrent searches, point gets and index builds keep promoting extent
// files back from the (fault-injected) spill store. Demotion skips pinned
// segments by design, so a count of zero on a tick is not a violation —
// but across a run some demotions must land (asserted by the caller).
func (h *harness) spiller() {
	for {
		select {
		case <-h.done:
			return
		default:
		}
		time.Sleep(2 * time.Millisecond)
		h.demoted.add(int64(h.col.DemoteSegments()))
	}
}

// query runs one read request and returns its hits.
func (h *harness) query(ctx context.Context, q core.Request) ([]topk.Result, error) {
	res, err := h.col.Query(ctx, q)
	return res.Hits, err
}

// rangeRequest is query filtered to lo ≤ a ≤ hi, the harness's one
// attribute.
func (h *harness) rangeRequest(query []float32, lo, hi int64) core.Request {
	return core.Request{Vector: query, Pred: colstore.RangePred{Attr: 0, Lo: lo, Hi: hi}, SearchOptions: core.SearchOptions{K: h.cfg.K, Nprobe: 8}}
}

// search runs one query and checks result shape invariants.
func (h *harness) search(who string, qseed int64) {
	query := VectorForID(qseed|1, h.cfg.Dim)
	res, err := h.query(context.Background(), core.Request{Vector: query, SearchOptions: core.SearchOptions{K: h.cfg.K, Nprobe: 8}})
	if err != nil {
		h.violate("%s: search error: %v", who, err)
		return
	}
	h.searches.add(1)
	h.checkResults(who, query, res)
}

// searchFiltered runs one attribute-filtered query mid-flight. The
// attribute of every entity is id & 1023, so the range predicate is
// verifiable from the result IDs alone, concurrently with inserts and
// deletes: whatever snapshot the query ran against, a returned ID whose
// derived attribute falls outside [lo, hi] can only mean the pushed filter
// leaked a filtered-out row.
func (h *harness) searchFiltered(who string, rng *rand.Rand) {
	lo := int64(rng.Intn(1024))
	hi := lo + int64(rng.Intn(512))
	if hi > 1023 {
		hi = 1023
	}
	query := VectorForID(rng.Int63()|1, h.cfg.Dim)
	res, err := h.query(context.Background(), h.rangeRequest(query, lo, hi))
	if err != nil {
		h.violate("%s: filtered search error: %v", who, err)
		return
	}
	h.filtered.add(1)
	h.checkResults(who, query, res)
	for _, r := range res {
		if a := r.ID & 1023; a < lo || a > hi {
			h.violate("%s: filtered search [%d,%d] returned id %d with attr %d", who, lo, hi, r.ID, a)
		}
	}
}

// searchPlanned runs one traced query mid-flight and verifies the planner
// stamped its decision: every search trace must carry a plan= annotation,
// even while writers are reshaping the collection (flushes, merges and
// index builds change the shape the planner sees between any two calls).
func (h *harness) searchPlanned(who string, rng *rand.Rand) {
	query := VectorForID(rng.Int63()|1, h.cfg.Dim)
	tr := obs.NewQueryRecord("stress-plan")
	res, err := h.query(context.Background(), core.Request{Vector: query, SearchOptions: core.SearchOptions{K: h.cfg.K, Nprobe: 8, Trace: tr}})
	if err != nil {
		h.violate("%s: planned search error: %v", who, err)
		return
	}
	h.searches.add(1)
	h.checkResults(who, query, res)
	if choice, ok := tr.Summary().Attr("plan"); !ok || choice == "" {
		h.violate("%s: search trace missing plan= annotation", who)
		return
	}
	h.planned.add(1)
}

// searchCancel runs one query under a context that dies mid-flight: half of
// the time as an explicit cancel racing the query, half as a microsecond-scale
// deadline. The query must complete normally or surface the context's error;
// any other outcome is a violation. Leaked goroutines and snapshots are
// caught by Run's end-of-run checks.
func (h *harness) searchCancel(who string, rng *rand.Rand) {
	query := VectorForID(rng.Int63()|1, h.cfg.Dim)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fuse := time.Duration(rng.Intn(200)) * time.Microsecond
	if rng.Intn(2) == 0 {
		var expire context.CancelFunc
		ctx, expire = context.WithTimeout(ctx, fuse)
		defer expire()
	} else {
		timer := time.AfterFunc(fuse, cancel)
		defer timer.Stop()
	}
	res, err := h.query(ctx, core.Request{Vector: query, SearchOptions: core.SearchOptions{K: h.cfg.K, Nprobe: 8}})
	switch {
	case err == nil:
		h.searches.add(1)
		h.checkResults(who, query, res)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		h.cancelled.add(1)
		if res != nil {
			h.violate("%s: cancelled search returned results alongside error %v", who, err)
		}
	default:
		h.violate("%s: cancelled search returned unexpected error: %v", who, err)
	}
}

// checkGoroutines verifies everything the run started is gone: writers,
// searchers, background flusher, and any goroutine a cancelled query might
// have abandoned. Shutdown is asynchronous, so the check polls with a grace
// period before declaring a leak.
func (h *harness) checkGoroutines(base int) {
	const slack = 3 // runtime bookkeeping (finalizers, timer goroutine)
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+slack {
			return
		}
		if time.Now().After(deadline) {
			h.violate("goroutine leak: %d at exit vs %d at start", n, base)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkResults validates the structural invariants every search result set
// must satisfy regardless of interleaving. Every distance is recomputed
// against the deterministic vector stored for its ID: with queries now
// riding formed batches, a result row served from a co-batched peer's tile
// column would carry that peer's distance — this check is the cross-query
// bleed detector.
func (h *harness) checkResults(who string, query []float32, res []topk.Result) {
	if len(res) > h.cfg.K {
		h.violate("%s: %d results for k=%d", who, len(res), h.cfg.K)
	}
	seen := make(map[int64]bool, len(res))
	prev := float32(math.Inf(-1))
	for _, r := range res {
		if r.Distance != r.Distance {
			h.violate("%s: NaN distance for id %d", who, r.ID)
		}
		if r.Distance < prev {
			h.violate("%s: results not sorted (%f after %f)", who, r.Distance, prev)
		}
		prev = r.Distance
		if seen[r.ID] {
			h.violate("%s: duplicate id %d in results", who, r.ID)
		}
		seen[r.ID] = true
		if w := r.ID >> idShift; w < 1 || w > int64(h.cfg.Writers) || r.ID&(1<<idShift-1) == 0 {
			h.violate("%s: id %d outside valid id space", who, r.ID)
			continue
		}
		// Tolerance covers float32 accumulation-order drift between the
		// scalar, blocked and tile kernels — orders of magnitude below the
		// distance shift a wrong query column would produce.
		want := vec.L2Squared(query, VectorForID(r.ID, h.cfg.Dim))
		if diff := math.Abs(float64(r.Distance) - float64(want)); diff > 1e-3*math.Max(1, float64(want)) {
			h.violate("%s: id %d distance %g, but query-to-row distance is %g (cross-query bleed?)", who, r.ID, r.Distance, want)
		}
	}
}

// snapshotProbe checks that snapshot IDs observed by one goroutine never go
// backwards (MVCC installs are totally ordered).
func (h *harness) snapshotProbe(who string, last int64) int64 {
	sn := h.col.AcquireSnapshot()
	id := sn.ID
	h.col.ReleaseSnapshot(sn)
	if id < last {
		h.violate("%s: snapshot went backwards: %d after %d", who, id, last)
		return last
	}
	return id
}

// checkVector verifies a returned vector matches the deterministic vector
// inserted for id, element-exact.
func (h *harness) checkVector(who string, id int64, got []float32) {
	want := VectorForID(id, h.cfg.Dim)
	if len(got) != len(want) {
		h.violate("%s: id %d vector has dim %d, want %d", who, id, len(got), len(want))
		return
	}
	for j := range want {
		if got[j] != want[j] {
			h.violate("%s: id %d vector corrupted at component %d", who, id, j)
			return
		}
	}
}

// quiesce disables faults, drains the system to a stable state, and runs
// the end-state invariants: exact accounting of acknowledged writes, point
// readability, and a recall floor against brute force.
func (h *harness) quiesce(states []*writerState, rep *Report) {
	h.faults.Disable()

	// Acknowledged writes may still sit in the MemTable behind earlier
	// injected flush failures; with faults off, a bounded retry must drain
	// them. The WAL consumer is async, so give Flush a few chances.
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		if err = h.col.Flush(); err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		h.violate("quiesce: flush never drained: %v", err)
		return
	}
	h.col.WaitIndexed()

	var live, deleted []int64
	for _, st := range states {
		live = append(live, st.live...)
		deleted = append(deleted, st.deleted...)
	}

	// Invariant: no lost (and no resurrected) acknowledged writes.
	rep.FinalCount = h.col.Count()
	if rep.FinalCount != len(live) {
		h.violate("quiesce: Count()=%d but %d acked rows should be live", rep.FinalCount, len(live))
	}

	rng := rand.New(rand.NewSource(h.cfg.Seed + 977))
	for _, id := range sampleIDs(rng, live, 2000) {
		e, ok := h.col.Get(id)
		if !ok {
			h.violate("quiesce: acked row %d lost", id)
			continue
		}
		h.checkVector("quiesce", id, e.Vectors[0])
	}
	for _, id := range sampleIDs(rng, deleted, 2000) {
		if _, ok := h.col.Get(id); ok {
			h.violate("quiesce: deleted row %d resurrected", id)
		}
	}

	// Counter accounting must be checked before recallCheck: its searches
	// would advance the query counter past what rep recorded.
	h.obsInvariants(rep)

	// Every sealed segment must live out of core: seal tiers or fails, so
	// fewer extent files than live segments means a segment escaped the
	// tier (index-payload files can only push the count higher).
	if h.cfg.Spill {
		ts := h.col.TierStats()
		rep.Tiered = ts.Tiered
		if segs := h.col.Stats().Segments; segs > 0 && ts.Tiered < segs {
			h.violate("quiesce: %d live segments but only %d tiered extent files", segs, ts.Tiered)
		}
	}

	rep.Recall = h.recallCheck(rng, live)
	if len(live) >= h.cfg.K && rep.Recall < h.cfg.RecallFloor {
		h.violate("quiesce: recall %.3f below floor %.3f", rep.Recall, h.cfg.RecallFloor)
	}
	if h.cfg.FilterRate > 0 {
		h.filteredQuiesceCheck(rng, live)
	}
	if h.cfg.PlanCheck {
		h.planFlapCheck(rng)
	}

	// Snapshot refcount invariant: with all queries joined, only the current
	// snapshot may be alive. A cancelled query that forgot to release its
	// snapshot would pin an old one here forever. The background flusher can
	// hold one transiently, so poll briefly before declaring a leak.
	for attempt := 0; ; attempt++ {
		if n := h.col.Stats().LiveSnapshots; n == 1 {
			break
		} else if attempt >= 100 {
			h.violate("quiesce: %d live snapshots, want 1 (leaked reference)", n)
			break
		}
		time.Sleep(time.Millisecond)
	}
}

// obsInvariants cross-checks the harness's own acknowledgement accounting
// against the observability counters after the system has quiesced: no
// acknowledged write may be missing from (or double-counted by) the
// metrics, and the WAL consumer must have applied exactly what was
// appended. The exposition must also round-trip through the parser while
// carrying the run's real series.
func (h *harness) obsInvariants(rep *Report) {
	counter := func(name string, labels ...string) int64 {
		//lint:allow metricreg read-side scrape helper re-resolves already-registered families by name
		return h.reg.Counter(name, labels...).Value()
	}
	if got := counter("vectordb_insert_rows_total", "collection", "stress"); got != rep.Inserted {
		h.violate("obs: insert counter %d != %d acked inserts", got, rep.Inserted)
	}
	if got := counter("vectordb_delete_rows_total", "collection", "stress"); got != rep.Deleted {
		h.violate("obs: delete counter %d != %d acked deletes", got, rep.Deleted)
	}
	appends := counter("vectordb_wal_appends_total", "collection", "stress")
	applied := counter("vectordb_wal_applied_total", "collection", "stress")
	if appends != applied {
		h.violate("obs: wal appends %d != applied %d after quiesce", appends, applied)
	}
	if want := rep.Inserted + rep.Deleted; appends != want {
		h.violate("obs: wal appends %d != %d acked records", appends, want)
	}
	// The query counter records attempts: a cancelled query was admitted to
	// the read path and counted before the context killed it.
	if got, want := counter("vectordb_query_total", "collection", "stress", "type", "vector"), rep.Searches+rep.Cancelled; got != want {
		h.violate("obs: query counter %d != %d attempts (%d completed + %d cancelled)", got, want, rep.Searches, rep.Cancelled)
	}
	if got := counter("vectordb_query_total", "collection", "stress", "type", "filtered"); got != rep.Filtered {
		h.violate("obs: filtered query counter %d != %d completed filtered searches", got, rep.Filtered)
	}
	var buf bytes.Buffer
	if err := h.reg.WritePrometheus(&buf); err != nil {
		h.violate("obs: final scrape failed: %v", err)
		return
	}
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		h.violate("obs: exposition does not parse: %v", err)
		return
	}
	if len(fams) == 0 {
		h.violate("obs: exposition is empty after a full run")
	}
}

// batchformInvariants checks the one read gate's conservation laws at
// quiesce. It runs after Close and after the goroutine check (which has
// waited out any slot holder still executing a batch a cancelled member
// left behind), so the counters are final: no run slot is held and nothing
// is queued, every query counted as batched rode exactly one formed batch,
// every formed batch carries the one trigger (a freed slot), and the two
// paths together account for at least every search the run completed — a
// shortfall means a query was acked without being counted, an excess means
// double delivery.
func (h *harness) batchformInvariants(rep *Report) {
	if n, q := h.pool.Inflight(), h.pool.Waiting(); n != 0 || q != 0 {
		h.violate("exec: %d run slots held and %d queries queued at quiesce", n, q)
	}
	var buf bytes.Buffer
	if err := h.reg.WritePrometheus(&buf); err != nil {
		h.violate("batchform: final scrape failed: %v", err)
		return
	}
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		h.violate("batchform: exposition does not parse: %v", err)
		return
	}
	series := map[string][]promtext.Sample{}
	for _, f := range fams {
		series[f.Name] = f.Samples
	}
	var batched, passthrough int64
	for _, s := range series["vectordb_batchform_queries_total"] {
		switch s.Labels["path"] {
		case "batched":
			batched = int64(s.Value)
		case "passthrough":
			passthrough = int64(s.Value)
		}
	}
	var riders, sized int64
	for _, s := range series["vectordb_batchform_occupancy_total"] {
		size, err := strconv.Atoi(s.Labels["size"])
		if err != nil || size < 1 {
			h.violate("batchform: malformed occupancy size label %q", s.Labels["size"])
			continue
		}
		riders += int64(size) * int64(s.Value)
		sized += int64(s.Value)
	}
	var triggered int64
	for _, s := range series["vectordb_batchform_batches_total"] {
		if tr := s.Labels["trigger"]; tr != "slot" {
			h.violate("batchform: batch formed by trigger %q, want slot", tr)
		}
		triggered += int64(s.Value)
	}
	for _, s := range series["vectordb_batchform_pending"] {
		if s.Value != 0 {
			h.violate("batchform: %v queries still queued at quiesce", s.Value)
		}
	}
	if riders != batched {
		h.violate("batchform: occupancy series account for %d queries but %d rode formed batches", riders, batched)
	}
	if triggered != sized {
		h.violate("batchform: %d batches by trigger vs %d by occupancy", triggered, sized)
	}
	// Quiesce's recall queries run sequentially (free slot → passthrough),
	// so the paths can exceed rep.Searches; falling short of it means a
	// search completed without being counted on either path.
	if got := batched + passthrough; got < rep.Searches {
		h.violate("batchform: %d queries counted across both paths but %d searches completed", got, rep.Searches)
	}
}

// filteredQuiesceCheck runs filtered searches against the drained
// collection and compares them with a brute-force filter-then-scan over the
// model's live rows: zero filtered-out or deleted IDs, and recall at the
// configured floor.
func (h *harness) filteredQuiesceCheck(rng *rand.Rand, live []int64) {
	for trial := 0; trial < 5; trial++ {
		lo := int64(rng.Intn(1024))
		hi := lo + int64(rng.Intn(512))
		if hi > 1023 {
			hi = 1023
		}
		query := VectorForID(rng.Int63()|1, h.cfg.Dim)
		gt := topk.New(h.cfg.K)
		for _, id := range live {
			if a := id & 1023; a >= lo && a <= hi {
				gt.Push(id, vec.L2Squared(query, VectorForID(id, h.cfg.Dim)))
			}
		}
		want := gt.Results()
		res, err := h.query(context.Background(), h.rangeRequest(query, lo, hi))
		if err != nil {
			h.violate("quiesce: filtered search error: %v", err)
			return
		}
		liveSet := make(map[int64]bool, len(live))
		for _, id := range live {
			liveSet[id] = true
		}
		for _, r := range res {
			if a := r.ID & 1023; a < lo || a > hi {
				h.violate("quiesce: filtered search [%d,%d] returned id %d with attr %d", lo, hi, r.ID, a)
			}
			if !liveSet[r.ID] {
				h.violate("quiesce: filtered search returned dead id %d", r.ID)
			}
		}
		if len(res) > len(want) {
			h.violate("quiesce: filtered search [%d,%d] returned %d results, oracle has %d", lo, hi, len(res), len(want))
		}
		if len(want) >= h.cfg.K {
			wantSet := map[int64]bool{}
			for _, r := range want {
				wantSet[r.ID] = true
			}
			hit := 0
			for _, r := range res {
				if wantSet[r.ID] {
					hit++
				}
			}
			if recall := float64(hit) / float64(len(want)); recall < h.cfg.RecallFloor {
				h.violate("quiesce: filtered recall %.3f below floor %.3f on [%d,%d]", recall, h.cfg.RecallFloor, lo, hi)
			}
		}
	}
}

// planFlapCheck replays one deterministic query workload twice against the
// drained collection and compares the planner's decisions position by
// position. With the system quiesced the planner's queue-depth input is
// constant, so the two passes see identical shapes — and the planner keeps
// no memory between decisions, so any divergence means a decision depends
// on something other than the shape it was given.
func (h *harness) planFlapCheck(rng *rand.Rand) {
	const queries = 16
	vecs := make([][]float32, queries)
	ks := make([]int, queries)
	for i := range vecs {
		vecs[i] = VectorForID(rng.Int63()|1, h.cfg.Dim)
		ks[i] = 1 + rng.Intn(h.cfg.K)
	}
	pass := func() []string {
		plans := make([]string, 0, queries)
		for i := range vecs {
			tr := obs.NewQueryRecord("stress-flap")
			if _, err := h.query(context.Background(), core.Request{Vector: vecs[i], SearchOptions: core.SearchOptions{K: ks[i], Nprobe: 8, Trace: tr}}); err != nil {
				h.violate("quiesce: flap-check search error: %v", err)
				return nil
			}
			choice, _ := tr.Summary().Attr("plan")
			plans = append(plans, choice)
		}
		return plans
	}
	first, second := pass(), pass()
	for i := range first {
		if i < len(second) && first[i] != second[i] {
			h.violate("quiesce: placement flapped on identical workload: query %d planned %s then %s", i, first[i], second[i])
		}
	}
}

// recallCheck compares Search against a brute-force scan over the model's
// live rows, averaging recall@K across queries. Nprobe is set to nlist so
// IVF probes exhaustively: any shortfall is lost rows or broken plumbing,
// not an accuracy trade-off.
func (h *harness) recallCheck(rng *rand.Rand, live []int64) float64 {
	if len(live) == 0 {
		return 1
	}
	k := h.cfg.K
	if k > len(live) {
		k = len(live)
	}
	total := 0.0
	for q := 0; q < h.cfg.RecallQueries; q++ {
		query := VectorForID(rng.Int63()|1, h.cfg.Dim)
		gt := topk.New(k)
		for _, id := range live {
			gt.Push(id, vec.L2Squared(query, VectorForID(id, h.cfg.Dim)))
		}
		want := map[int64]bool{}
		for _, r := range gt.Results() {
			want[r.ID] = true
		}
		res, err := h.query(context.Background(), core.Request{Vector: query, SearchOptions: core.SearchOptions{K: k, Nprobe: 8}})
		if err != nil {
			h.violate("quiesce: recall search error: %v", err)
			return 0
		}
		hit := 0
		for _, r := range res {
			if want[r.ID] {
				hit++
			}
		}
		total += float64(hit) / float64(len(want))
	}
	return total / float64(h.cfg.RecallQueries)
}

// sampleIDs returns up to n IDs drawn without replacement (all of them when
// len(ids) <= n), deterministically from rng.
func sampleIDs(rng *rand.Rand, ids []int64, n int) []int64 {
	if len(ids) <= n {
		return ids
	}
	out := append([]int64(nil), ids...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out[:n]
}
