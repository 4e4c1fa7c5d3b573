package stress

import (
	"flag"
	"testing"
	"time"
)

// -seed reproduces a failing run: the operation schedule (and the fault
// decision stream) is a pure function of it.
var seedFlag = flag.Int64("seed", 1, "stress schedule seed")

// -faults selects an extra fault mode for the dedicated fault tests
// ("cancel" arms the context-cancellation mode in TestStressCancel even
// under -short; "filtered" does the same for the attribute-filtered mode in
// TestStressFiltered; "spill" for the out-of-core demotion mode in
// TestStressSpill; "plan" for the query-planner mode in TestStressPlan).
var faultsFlag = flag.String("faults", "", `extra fault mode ("cancel", "filtered", "spill", "plan")`)

// TestScheduleDeterminism: the acceptance contract is that the same -seed
// yields the same operation schedule. The hash covers op kinds, batch sizes
// and the raw randomness used for target selection.
func TestScheduleDeterminism(t *testing.T) {
	a := ScheduleHash(*seedFlag, 4, 512)
	b := ScheduleHash(*seedFlag, 4, 512)
	if a != b {
		t.Fatalf("same seed produced different schedules: %x vs %x", a, b)
	}
	if c := ScheduleHash(*seedFlag+1, 4, 512); c == a {
		t.Fatalf("different seeds produced identical schedules: %x", a)
	}
	// Streams must be decorrelated across workers.
	s0, s1 := NewStream(*seedFlag, 0), NewStream(*seedFlag, 1)
	same := 0
	for i := 0; i < 64; i++ {
		if s0.Next() == s1.Next() {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("worker streams correlated: %d/64 identical ops", same)
	}
}

func TestVectorForIDDeterministic(t *testing.T) {
	a, b := VectorForID(42, 16), VectorForID(42, 16)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("VectorForID not deterministic at %d", i)
		}
		if a[i] != a[i] {
			t.Fatalf("VectorForID produced NaN at %d", i)
		}
	}
	c := VectorForID(43, 16)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("adjacent IDs map to identical vectors")
	}
}

// TestStressClean runs the full mixed workload fault-free: 4 writers + 4
// searchers for over 2s (the acceptance floor), checking every invariant.
func TestStressClean(t *testing.T) {
	if testing.Short() {
		t.Skip("stress run skipped in -short mode")
	}
	rep, err := Run(Config{
		Seed:      *seedFlag,
		Writers:   4,
		Searchers: 4,
		Duration:  2200 * time.Millisecond,
	})
	t.Logf("clean: %s", rep)
	if err != nil {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal(err)
	}
	if rep.Inserted == 0 || rep.Searches == 0 {
		t.Fatalf("workload did not run: %s", rep)
	}
}

// TestStressFaults repeats the run with the fault layer armed: delayed
// flushes, failed object-store writes, and torn segment blobs. The system
// must tolerate the faults mid-run (acknowledged rows stay buffered and are
// retried) and drain to an exactly consistent state once faults stop.
func TestStressFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("stress run skipped in -short mode")
	}
	rep, err := Run(Config{
		Seed:      *seedFlag,
		Writers:   4,
		Searchers: 4,
		Duration:  2200 * time.Millisecond,
		Faults: FaultConfig{
			FailRate:  0.10,
			TornRate:  0.05,
			DelayRate: 0.20,
			MaxDelay:  2 * time.Millisecond,
		},
	})
	t.Logf("faults: %s", rep)
	if err != nil {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal(err)
	}
	if rep.Injected == 0 {
		t.Fatal("fault layer injected nothing; harness is not exercising failure paths")
	}
}

// TestStressCancel arms the cancellation fault mode: half the searcher
// queries run under contexts that are cancelled or expire mid-flight. The
// run must stay exactly consistent, every context error must be surfaced
// (never swallowed into bogus results), and Run's end-of-run checks verify
// no goroutine or snapshot leaks from the abandoned queries.
func TestStressCancel(t *testing.T) {
	if testing.Short() && *faultsFlag != "cancel" {
		t.Skip("stress run skipped in -short mode (force with -faults=cancel)")
	}
	dur := 2200 * time.Millisecond
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	rep, err := Run(Config{
		Seed:       *seedFlag,
		Writers:    4,
		Searchers:  4,
		Duration:   dur,
		CancelRate: 0.5,
	})
	t.Logf("cancel: %s", rep)
	if err != nil {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal(err)
	}
	if rep.Cancelled == 0 {
		t.Log("no query observed a context error this run (cancellation raced completion); mode still exercised")
	}
	if rep.Searches == 0 {
		t.Fatalf("workload did not run: %s", rep)
	}
}

// TestStressFiltered arms the attribute-filtered mode: half the searcher
// queries carry a range predicate over the ID-derived attribute, racing
// concurrent inserts, deletes, flushes and index builds. The predicate is
// checkable from result IDs alone, so the zero-filtered-out-IDs invariant
// holds mid-flight; quiesce then cross-checks filtered results exactly
// against a filter-then-scan oracle over the surviving rows.
func TestStressFiltered(t *testing.T) {
	if testing.Short() && *faultsFlag != "filtered" {
		t.Skip("stress run skipped in -short mode (force with -faults=filtered)")
	}
	dur := 2200 * time.Millisecond
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	rep, err := Run(Config{
		Seed:       *seedFlag,
		Writers:    4,
		Searchers:  4,
		Duration:   dur,
		FilterRate: 0.5,
	})
	t.Logf("filtered: %s", rep)
	if err != nil {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal(err)
	}
	if rep.Filtered == 0 {
		t.Fatalf("no filtered searches ran: %s", rep)
	}
}

// TestStressSpill arms the out-of-core mode with the full fault layer:
// sealed segments tier into mmap-backed extent files spilled through the
// fault-injected store, a tight mapped-bytes budget keeps the LRU
// demoting, and a background spiller force-demotes everything mapped every
// few milliseconds — so concurrent searches, gets and index builds promote
// cold segments back through failed and delayed spill reads for the whole
// run. Quiesce must still account for every acknowledged write exactly.
func TestStressSpill(t *testing.T) {
	if testing.Short() && *faultsFlag != "spill" {
		t.Skip("stress run skipped in -short mode (force with -faults=spill)")
	}
	dur := 2200 * time.Millisecond
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	rep, err := Run(Config{
		Seed:      *seedFlag,
		Writers:   4,
		Searchers: 4,
		Duration:  dur,
		Spill:     true,
		Faults: FaultConfig{
			FailRate:  0.10,
			TornRate:  0.05,
			DelayRate: 0.20,
			MaxDelay:  2 * time.Millisecond,
		},
	})
	t.Logf("spill: %s", rep)
	if err != nil {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal(err)
	}
	if rep.Tiered == 0 {
		t.Fatalf("no segments tiered: %s", rep)
	}
	if rep.Demoted == 0 {
		t.Fatalf("spiller never demoted a segment: %s", rep)
	}
	if rep.Injected == 0 {
		t.Fatal("fault layer injected nothing; spill promotions were not exercised under faults")
	}
}

// TestStressPlan arms the query-planner mode: half the searcher queries
// run traced and must carry a plan= decision while writers reshape the
// collection under them (flushes, merges and index builds all change the
// shape the planner prices). After quiesce the same 16-query workload is
// replayed back-to-back twice; on a drained system the plan sequences must
// be identical — the planner is deterministic in the shape it prices.
func TestStressPlan(t *testing.T) {
	if testing.Short() && *faultsFlag != "plan" {
		t.Skip("stress run skipped in -short mode (force with -faults=plan)")
	}
	dur := 2200 * time.Millisecond
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	rep, err := Run(Config{
		Seed:      *seedFlag,
		Writers:   4,
		Searchers: 4,
		Duration:  dur,
		PlanCheck: true,
	})
	t.Logf("plan: %s", rep)
	if err != nil {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal(err)
	}
	if rep.Planned == 0 {
		t.Fatalf("no planned searches verified: %s", rep)
	}
}

// TestStressSmoke is the fast path for plain `go test`: a short clean run
// plus a short faulted run so every CI invocation exercises the harness.
func TestStressSmoke(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: *seedFlag, Writers: 2, Searchers: 2, Duration: 150 * time.Millisecond},
		{Seed: *seedFlag, Writers: 2, Searchers: 2, Duration: 150 * time.Millisecond,
			Faults: FaultConfig{FailRate: 0.1, TornRate: 0.1, DelayRate: 0.1}},
		{Seed: *seedFlag, Writers: 2, Searchers: 2, Duration: 150 * time.Millisecond,
			CancelRate: 0.5},
		{Seed: *seedFlag, Writers: 2, Searchers: 2, Duration: 150 * time.Millisecond,
			FilterRate: 0.5},
		{Seed: *seedFlag, Writers: 2, Searchers: 2, Duration: 150 * time.Millisecond,
			Spill: true, Faults: FaultConfig{FailRate: 0.1, DelayRate: 0.1}},
		{Seed: *seedFlag, Writers: 2, Searchers: 2, Duration: 150 * time.Millisecond,
			PlanCheck: true},
	} {
		rep, err := Run(cfg)
		t.Logf("smoke: %s", rep)
		if err != nil {
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			t.Fatal(err)
		}
	}
}
