package query

import (
	"testing"

	"vectordb/internal/colstore"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// planTestProfile mirrors the plan package's synthetic test profile so the
// strategy crossover is machine-independent here too.
func planTestProfile() *plan.Profile {
	kernel := map[string]float64{}
	for _, l := range vec.Levels() {
		kernel[l.String()] = 8e9
	}
	return &plan.Profile{
		KernelDimsPerSec: kernel,
		SQ8DimsPerSec:    16e9,
		RowOverheadNs:    30,
		RowNsPerDim:      0.5,
		LookupNs:         40,
		BitsetNsPerRow:   1.2,
		BitsetNsPerMatch: 20,
	}
}

// shapedSource is a minimal Shaped Source: CountRange returns a fixed
// estimate and the shape is fixed; the vector methods record which path
// ran.
type shapedSource struct {
	shape    plan.FilterShape
	matched  int
	ranPlain bool // StrategyA path (RangeRows + DistanceByID)
	ranPush  bool // StrategyB path (CompileRange + VectorQueryPushed)
}

func (s *shapedSource) PlanFilterShape(int) plan.FilterShape { return s.shape }
func (s *shapedSource) TotalRows() int                       { return s.shape.Rows }
func (s *shapedSource) CountRange(int, int64, int64) int     { return s.matched }

func (s *shapedSource) RangeRows(int, int64, int64) []int64 {
	s.ranPlain = true
	ids := make([]int64, s.matched)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

func (s *shapedSource) AttrValue(int, int64) (int64, bool) { return 0, true }

func (s *shapedSource) VectorQuery(int, []float32, int, int) []topk.Result { return nil }

func (s *shapedSource) CompileRange(int, int64, int64) (*PushedFilter, bool) {
	return colstore.NewPushedFilter(s.matched, s.shape.Rows, "dense", nil, nil), true
}

func (s *shapedSource) VectorQueryPushed(int, []float32, int, int, *PushedFilter) []topk.Result {
	s.ranPush = true
	return nil
}

func (s *shapedSource) DistanceByID(_ int, _ []float32, id int64) (float32, bool) {
	return float32(id), true
}

// TestPickStrategyCrossover: below the calibrated crossover PickStrategy
// routes to strategy A (no bitset compiled), above it to strategy B.
func TestPickStrategyCrossover(t *testing.T) {
	p := plan.New(plan.Config{Profile: planTestProfile()})
	base := plan.FilterShape{Rows: 100000, Dim: 128, K: 10, Indexed: true, Nlist: 64, Nprobe: 32}
	vc := VecCond{Field: 0, Query: make([]float32, 128), K: 10, Nprobe: 32}
	rc := RangeCond{Attr: 0, Lo: 0, Hi: 100}

	low := &shapedSource{shape: base, matched: 1000} // sel 0.01
	strat, dec := PickStrategy(p, low, rc, vc)
	if strat != StratA || dec.Strategy != plan.StrategyPrefilter {
		t.Errorf("sel 0.01: got strategy %s (%s), want A/prefilter", strat, dec.Strategy)
	}

	high := &shapedSource{shape: base, matched: 60000} // sel 0.6
	strat, dec = PickStrategy(p, high, rc, vc)
	if strat != StratB || dec.Strategy != plan.StrategyPushdown {
		t.Errorf("sel 0.6: got strategy %s (%s), want B/pushdown", strat, dec.Strategy)
	}
}

// TestBenchFilterLosingCells is the regression gate for the static
// crossover this planner replaces: in the measured filtered-scan grid
// (n=100k dim=128 k=10, IVF_FLAT nlist=64 nprobe=32, bitset compile charged
// to the pushed side), pushdown LOSES at selectivity 0.01 (speedup 0.73x
// clustered) because the O(n) bitset compile outweighs the probe savings.
// The planner must route those cells to strategy A, and must keep pushdown
// for every cell where it wins by 2x+. The sel-0.1 shuffled cell also dips
// below 1.0x, but only from row layout — which the physical shape cannot
// see — so the gate covers the selectivity-driven cells: every cell at or
// below 0.01, and every cell at or above 0.5.
func TestBenchFilterLosingCells(t *testing.T) {
	// The IVF cells of that grid (measured at commit f42752e, GOMAXPROCS=1):
	// pushed-bitset speedup over the per-row callback, by selectivity and
	// attribute layout.
	cells := []struct {
		Selectivity float64
		Layout      string
		Speedup     float64
	}{
		{0.01, "clustered", 0.73}, {0.1, "clustered", 2.42}, {0.5, "clustered", 2.79}, {0.9, "clustered", 2.91},
		{0.01, "shuffled", 1.05}, {0.1, "shuffled", 0.76}, {0.5, "shuffled", 2.40}, {0.9, "shuffled", 2.55},
	}
	p := plan.New(plan.Config{Profile: planTestProfile()})
	const rows = 100000
	for _, cell := range cells {
		s := plan.FilterShape{
			Rows: rows, Dim: 128, K: 10,
			Indexed: true, Nlist: 64, Nprobe: 32,
			Matched: int(cell.Selectivity * rows),
		}
		dec := p.PickFilterStrategy(s)
		switch {
		case cell.Selectivity <= 0.01:
			if dec.Strategy != plan.StrategyPrefilter {
				t.Errorf("sel %.2f %s (measured speedup %.2fx): planner picked %s, want prefilter",
					cell.Selectivity, cell.Layout, cell.Speedup, dec.Strategy)
			}
		case cell.Selectivity >= 0.5:
			if dec.Strategy != plan.StrategyPushdown {
				t.Errorf("sel %.2f %s (measured speedup %.2fx): planner picked %s, want pushdown",
					cell.Selectivity, cell.Layout, cell.Speedup, dec.Strategy)
			}
		}
	}
}
