package plan

import (
	"math"
	"testing"
	"time"

	"vectordb/internal/vec"
)

// testProfile is a fixed synthetic calibration profile so decision tests
// are machine-independent: every SIMD tier gets the same batch-kernel
// rate, and the remaining primitives are set to plausible magnitudes that
// reproduce the measured strategy crossovers.
func testProfile() *Profile {
	kernel := map[string]float64{}
	for _, l := range vec.Levels() {
		kernel[l.String()] = 8e9 // 0.125 ns per dim
	}
	return &Profile{
		KernelDimsPerSec: kernel,
		SQ8DimsPerSec:    16e9,
		RowOverheadNs:    30,
		RowNsPerDim:      0.5,
		LookupNs:         40,
		BitsetNsPerRow:   1.2,
		BitsetNsPerMatch: 20,
	}
}

func testPlanner() *Planner {
	return New(Config{Profile: testProfile()})
}

// TestVenueGolden pins the placement decision table: each row is a query
// shape whose cheapest CPU venue is structurally forced by the cost model.
// (The device rows — pure-GPU and hybrid against the CPU — are priced and
// pinned in internal/index/sq8h, beside the index whose plans they price.)
func TestVenueGolden(t *testing.T) {
	p := testPlanner()
	cases := []struct {
		name  string
		shape QueryShape
		want  Venue
	}{
		{
			// A large collection: probing 1/16 of the buckets dwarfs the
			// coarse step it pays for.
			name:  "probe_beats_scan",
			shape: QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 1000000, Nlist: 4096, Nprobe: 256},
			want:  VenueIVFCPU,
		},
		{
			// A tiny segment probed exhaustively: the coarse step is pure
			// overhead over the scan it does not shorten.
			name:  "exhaustive_probe_loses_to_scan",
			shape: QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 512, Nlist: 64, Nprobe: 64},
			want:  VenueFlatCPU,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := p.PlaceQuery("", tc.shape, VenueFlatCPU, VenueIVFCPU)
			if got.Venue != tc.want {
				t.Errorf("got %s want %s (flat=%.0f ivf=%.0f)", got.Venue, tc.want,
					p.CostFlatCPU(tc.shape), p.CostIVFCPU(tc.shape))
			}
			if got.Est <= 0 {
				t.Errorf("non-positive estimate %v", got.Est)
			}
		})
	}
}

// TestFilterStrategyGolden pins the filter-strategy crossover: the O(n)
// bitset compile makes pushdown lose at very low selectivity and win at
// high selectivity — the filtered-scan regression this planner fixes.
func TestFilterStrategyGolden(t *testing.T) {
	p := testPlanner()
	base := FilterShape{Rows: 100000, Dim: 128, K: 10, Indexed: true, Nlist: 64, Nprobe: 32}
	cases := []struct {
		name    string
		matched int
		graph   bool
		want    Strategy
	}{
		{"sel_0.001", 100, false, StrategyPrefilter},
		{"sel_0.01", 1000, false, StrategyPrefilter},
		{"sel_0.5", 50000, false, StrategyPushdown},
		{"sel_1.0", 100000, false, StrategyPushdown},
		{"graph_sel_0.5", 50000, true, StrategyGraph},
	}
	for _, tc := range cases {
		s := base
		s.Matched = tc.matched
		s.Graph = tc.graph
		if tc.graph {
			s.Indexed = false
		}
		got := p.PickFilterStrategy(s)
		if got.Strategy != tc.want {
			t.Errorf("%s: got %s want %s (A=%.0f push=%.0f)",
				tc.name, got.Strategy, tc.want, p.CostPrefilter(s), p.CostPushdown(s))
		}
	}
}

// TestCostMonotonicNQ: every venue's cost strictly increases with nq.
func TestCostMonotonicNQ(t *testing.T) {
	p := testPlanner()
	for _, v := range []Venue{VenueFlatCPU, VenueIVFCPU} {
		prev := 0.0
		for nq := 1; nq <= 1<<12; nq *= 2 {
			s := QueryShape{NQ: nq, K: 10, Dim: 128, HotRows: 100000, Nlist: 256, Nprobe: 16}
			c := p.CostVenue(v, s)
			if !(c > prev) {
				t.Errorf("%s: cost not strictly increasing at nq=%d (%.0f <= %.0f)", v, nq, c, prev)
			}
			prev = c
		}
	}
}

// TestCostMonotonicRows: every venue's cost strictly increases with the
// row count (fixed explicit IVF geometry so the probed fraction is stable).
func TestCostMonotonicRows(t *testing.T) {
	p := testPlanner()
	for _, v := range []Venue{VenueFlatCPU, VenueIVFCPU} {
		prev := 0.0
		for n := 1024; n <= 1<<24; n *= 4 {
			s := QueryShape{NQ: 4, K: 10, Dim: 128, HotRows: n, Nlist: 256, Nprobe: 16}
			c := p.CostVenue(v, s)
			if !(c > prev) {
				t.Errorf("%s: cost not strictly increasing at n=%d (%.0f <= %.0f)", v, n, c, prev)
			}
			prev = c
		}
	}
}

// TestCostNeverNaNOrNegative fuzzes the estimators with degenerate and
// adversarial shapes: costs must always come back finite and >= 0.
func TestCostNeverNaNOrNegative(t *testing.T) {
	p := testPlanner()
	shapes := []QueryShape{
		{},
		{NQ: -5, K: -1, Dim: -128},
		{NQ: 1 << 30, K: 1 << 30, Dim: 1 << 20, HotRows: 1 << 30, MappedRows: 1 << 30, ColdRows: 1 << 30},
		{NQ: 1, Dim: 128, HotRows: 1000, Nlist: -7, Nprobe: 1 << 30},
		{NQ: 1, Dim: 128, QueueDepth: -100, Workers: -1},
	}
	for _, s := range shapes {
		for _, v := range []Venue{VenueFlatCPU, VenueIVFCPU, Venue("bogus")} {
			c := p.CostVenue(v, s)
			if math.IsNaN(c) || c < 0 || math.IsInf(c, 0) {
				t.Errorf("venue %s shape %+v: bad cost %v", v, s, c)
			}
		}
	}
	fshapes := []FilterShape{
		{},
		{Rows: -10, Matched: -4, Dim: -1},
		{Rows: 1 << 30, Matched: 1 << 31, Dim: 1 << 20, K: 1 << 30, Indexed: true},
		{Rows: 100, Matched: 1000, Graph: true, K: -1},
	}
	for _, s := range fshapes {
		for _, c := range []float64{p.CostPrefilter(s), p.CostPushdown(s)} {
			if math.IsNaN(c) || c < 0 || math.IsInf(c, 0) {
				t.Errorf("filter shape %+v: bad cost %v", s, c)
			}
		}
	}
}

// TestPlacementDeterministic: identical decision sequences produce
// identical plans — the stress suite's plan-determinism invariant in
// miniature.
func TestPlacementDeterministic(t *testing.T) {
	shapes := []QueryShape{
		{NQ: 1, K: 10, Dim: 64, HotRows: 50000},
		{NQ: 8, K: 100, Dim: 64, HotRows: 50000, Nlist: 128, Nprobe: 8},
		{NQ: 1, K: 10, Dim: 64, ColdRows: 50000, Nlist: 128, Nprobe: 128},
		{NQ: 64, K: 10, Dim: 64, MappedRows: 50000, Nlist: 128, Nprobe: 8},
	}
	run := func() []Venue {
		p := testPlanner()
		var out []Venue
		for round := 0; round < 3; round++ {
			for _, s := range shapes {
				out = append(out, p.PlaceQuery("", s, VenueFlatCPU, VenueIVFCPU).Venue)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestObserveMispredict: only ratios beyond the 8x band above the noise
// floor count as mispredictions.
func TestObserveMispredict(t *testing.T) {
	p := testPlanner()
	d := Decision{Venue: VenueFlatCPU, Est: time.Millisecond}
	p.Observe(d, time.Millisecond)     // exact: fine
	p.Observe(d, 7*time.Millisecond)   // within 8x: fine
	p.Observe(d, 100*time.Millisecond) // 100x: mispredict
	p.Observe(d, time.Microsecond)     // 1/1000x: mispredict
	// Tiny on both sides: noise-floored.
	p.Observe(Decision{Venue: VenueFlatCPU, Est: time.Microsecond}, 40*time.Microsecond)
	// The metrics are nil-registry handles; the assertions above are that
	// none of these calls panic and the classification logic is exercised
	// (counted classification is covered in the core metrics test).
}

// TestQueueBucketLoad: load shifts costs only at bucket boundaries.
func TestQueueBucketLoad(t *testing.T) {
	p := testPlanner()
	s := QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 100000, Workers: 8}
	idle := p.CostFlatCPU(s)
	s.QueueDepth = 7 // < workers: bucket 1
	b1 := p.CostFlatCPU(s)
	if !(b1 > idle) {
		t.Errorf("load did not raise CPU cost: %.0f <= %.0f", b1, idle)
	}
	s2 := s
	s2.QueueDepth = 5 // same bucket
	if got := p.CostFlatCPU(s2); got != b1 {
		t.Errorf("same load bucket changed cost: %.0f != %.0f", got, b1)
	}
}

// TestResidencyPenalty: mapped rows are read in place and cost what hot
// rows do; cold rows, which promote first, cost more.
func TestResidencyPenalty(t *testing.T) {
	p := testPlanner()
	hot := p.CostFlatCPU(QueryShape{NQ: 1, K: 10, Dim: 128, HotRows: 100000})
	mapped := p.CostFlatCPU(QueryShape{NQ: 1, K: 10, Dim: 128, MappedRows: 100000})
	cold := p.CostFlatCPU(QueryShape{NQ: 1, K: 10, Dim: 128, ColdRows: 100000})
	if !(hot == mapped && mapped < cold) {
		t.Errorf("residency ordering violated: hot=%.0f mapped=%.0f cold=%.0f", hot, mapped, cold)
	}
}
