package plan

import (
	"math"
	"testing"
)

// TestPriorDecides: a planner built without a profile prices with the
// measured prior. Its estimates are finite and positive, mixed.rw's range
// filters over one IVF_FLAT field (32,768 × 64, nlist 64, nprobe 8) plan
// pushdown at every width, and shapes well inside strategy A's side of
// the crossover plan the prefilter by at least 2×.
func TestPriorDecides(t *testing.T) {
	p := New(Config{})
	ivf := FilterShape{Rows: 32768, Dim: 64, K: 10, Indexed: true, Nlist: 64, Nprobe: 8}
	flat := FilterShape{Rows: 32768, Dim: 64, K: 10}
	graph := FilterShape{Rows: 32768, Dim: 64, K: 10, Graph: true}
	cases := []struct {
		name   string
		shape  FilterShape
		sel    float64
		want   Strategy
		margin float64 // loser's cost over the winner's, at least
	}{
		{"mixed.rw_1pct", ivf, 0.01, StrategyPushdown, 1},
		{"mixed.rw_10pct", ivf, 0.10, StrategyPushdown, 1},
		{"mixed.rw_50pct", ivf, 0.50, StrategyPushdown, 1},
		{"unindexed_0.5pct", flat, 0.005, StrategyPrefilter, 2},
		{"graph_0.1pct", graph, 0.001, StrategyPrefilter, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.shape
			s.Matched = int(float64(s.Rows) * tc.sel)
			a, push := p.CostPrefilter(s), p.CostPushdown(s)
			for _, c := range []float64{a, push} {
				if math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
					t.Fatalf("estimate %v is not finite and positive", c)
				}
			}
			d := p.PickFilterStrategy(s)
			if d.Strategy != tc.want {
				t.Fatalf("got %s want %s (A=%.0f push=%.0f)", d.Strategy, tc.want, a, push)
			}
			if d.Est <= 0 {
				t.Errorf("non-positive estimate %v", d.Est)
			}
			if m := math.Max(a, push) / math.Min(a, push); m < tc.margin {
				t.Errorf("margin %.2f× below %.0f× (A=%.0f push=%.0f)", m, tc.margin, a, push)
			}
		})
	}
	if got := p.PlaceQuery("", QueryShape{NQ: 1, K: 10, Dim: 64, HotRows: 32768, Nlist: 64, Nprobe: 8}, VenueIVFCPU); got.Est <= 0 {
		t.Errorf("venue estimate %v is not positive", got.Est)
	}
}
