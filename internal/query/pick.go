package query

import (
	"vectordb/internal/obs"
	"vectordb/internal/plan"
)

// Shaped is an optional Source extension: the engine reports the physical
// shape of the data under the vector leg (row counts, index family, IVF
// geometry, live pool load) so the planner can price filter strategies.
// The Matched field is left for PickStrategy to fill from the zone-map
// estimate.
type Shaped interface {
	PlanFilterShape(field int) plan.FilterShape
}

// PickStrategy routes one filtered query through the cost-based planner:
// the zone-map-estimated selectivity (CountRange — no bitset is compiled
// to decide) and the source's physical shape pick pushdown (strategy B /
// filtered graph traversal) or the attribute-first exact scan (strategy
// A). This replaces the static dense/sparse crossover for strategy
// choice: below the calibrated crossover the O(n) bitset compile
// outweighs the partial scan and A wins — the filtered-scan grid's
// low-selectivity regression. The decision and its estimate are recorded
// on the record as the filter_plan stage.
func PickStrategy(p *plan.Planner, s Source, rc RangeCond, vc VecCond) (string, plan.Decision) {
	fs := plan.FilterShape{Dim: len(vc.Query), K: vc.K}
	if sh, ok := s.(Shaped); ok {
		fs = sh.PlanFilterShape(vc.Field)
		fs.Dim, fs.K = len(vc.Query), vc.K
	} else {
		fs.Rows = s.TotalRows()
	}
	if vc.Nprobe > 0 {
		fs.Nprobe = vc.Nprobe
	}
	fs.Matched = s.CountRange(rc.Attr, rc.Lo, rc.Hi)
	dec := p.PickFilterStrategy(fs)
	sp := vc.Trace.Start(obs.FilterPlan)
	vc.Trace.SetString(obs.Chosen, dec.Choice())
	vc.Trace.SetFloat(obs.EstSelectivity, fs.Selectivity())
	vc.Trace.SetInt(obs.EstNs, dec.Est.Nanoseconds())
	sp.End()
	if dec.Strategy == plan.StrategyPrefilter {
		return StratA, dec
	}
	return StratB, dec
}
