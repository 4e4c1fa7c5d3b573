package query

import (
	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// Strategy names, as in Fig. 4.
const (
	StratA = "A" // attribute-first-vector-full-scan
	StratB = "B" // attribute-first-vector-search
	StratC = "C" // vector-first-attribute-full-scan
	StratD = "D" // cost-based (AnalyticDB-V)
	StratE = "E" // partition-based (Milvus)
)

// Theta is the over-fetch factor θ of strategy C: the vector search returns
// θ·k candidates so that k survive attribute verification (θ = 1.1 in the
// paper's experiments; this implementation retries with a doubled factor
// when verification underfills).
const Theta = 1.1

// StrategyA: attribute-first-vector-full-scan. The attribute constraint is
// resolved through the sorted column (binary search + skip pointers), then
// every qualifying entity is compared against the query vector. Exact.
func StrategyA(s Source, rc RangeCond, vc VecCond) []topk.Result {
	vc.Trace.SetString(obs.FilterStrategy, StratA)
	filter := vc.Trace.Start(obs.AttrFilter)
	rows := s.RangeRows(rc.Attr, rc.Lo, rc.Hi)
	vc.Trace.SetInt(obs.FilterRows, int64(len(rows)))
	filter.End()
	return exactScan(s, rows, vc)
}

// exactScan is strategy A's second half: every row of rows is compared
// against the query vector.
func exactScan(s Source, rows []int64, vc VecCond) []topk.Result {
	scan := vc.Trace.Start(obs.ExactScan)
	defer scan.End()
	h := topk.New(vc.K)
	for _, id := range rows {
		if d, ok := s.DistanceByID(vc.Field, vc.Query, id); ok {
			h.Push(id, d)
		}
	}
	return h.Results()
}

// StrategyB: attribute-first-vector-search. The attribute constraint
// produces a bitmap of qualifying rows — the source compiles it to bitsets
// over build positions — and normal vector query processing runs with the
// bitmap tested beneath the batch kernels on every encountered vector. An
// unknown attribute qualifies no row.
func StrategyB(s Source, rc RangeCond, vc VecCond) []topk.Result {
	vc.Trace.SetString(obs.FilterStrategy, StratB)
	filter := vc.Trace.Start(obs.AttrFilter)
	pf, ok := s.CompileRange(rc.Attr, rc.Lo, rc.Hi)
	if !ok {
		filter.End()
		return nil
	}
	defer pf.Release()
	vc.Trace.SetInt(obs.FilterRows, int64(pf.Matched))
	filter.End()
	// The pushed filter's selectivity and evaluation mode keep the
	// cost-based decisions auditable afterwards.
	vc.Trace.SetString(obs.FilterMode, pf.Mode)
	vc.Trace.SetFloat(obs.FilterSelectivity, pf.Selectivity())
	if pf.Matched == 0 {
		return nil
	}
	return s.VectorQueryPushed(vc.Field, vc.Query, vc.K, vc.Nprobe, pf)
}

// StrategyC: vector-first-attribute-full-scan. Vector query processing
// fetches θ·k candidates; the attribute constraint is verified afterwards.
// If fewer than k survive, the fetch factor doubles (up to the full data
// size) — the paper's "to make sure there are k final results".
func StrategyC(s Source, rc RangeCond, vc VecCond) []topk.Result {
	vc.Trace.SetString(obs.FilterStrategy, StratC)
	fetch := int(float64(vc.K)*Theta + 0.5)
	if fetch < vc.K {
		fetch = vc.K
	}
	total := s.TotalRows()
	for {
		vec := vc.Trace.Start(obs.VectorFirst)
		cands := s.VectorQuery(vc.Field, vc.Query, fetch, vc.Nprobe)
		vec.End()
		verify := vc.Trace.Start(obs.Verify)
		h := topk.New(vc.K)
		for _, c := range cands {
			v, ok := s.AttrValue(rc.Attr, c.ID)
			if !ok || v < rc.Lo || v > rc.Hi {
				continue
			}
			h.Push(c.ID, c.Distance)
		}
		verify.End()
		if h.Len() >= vc.K || fetch >= total || len(cands) < fetch {
			return h.Results()
		}
		fetch *= 2
		if fetch > total {
			fetch = total
		}
	}
}

// CostModel prices the three base strategies in distance-computation units
// so strategy D can choose among them. The constants reflect the structural
// costs: A scans exactly the qualifying rows; B runs an index probe over the
// whole collection restricted by a bitmap; C runs an index probe and
// verifies θ·k candidates, but only works when enough candidates pass.
type CostModel struct {
	// ProbeFraction approximates the fraction of the collection an index
	// probe touches (nprobe/nlist for IVF); default 0.08.
	ProbeFraction float64
}

// DefaultCostModel mirrors the experiment configuration.
func DefaultCostModel() CostModel { return CostModel{ProbeFraction: 0.08} }

// Choose picks the cheapest feasible strategy for the given conditions.
func (m CostModel) Choose(s Source, rc RangeCond, vc VecCond) string {
	if m.ProbeFraction <= 0 {
		m.ProbeFraction = 0.08
	}
	total := s.TotalRows()
	if total == 0 {
		return StratA
	}
	matched := s.CountRange(rc.Attr, rc.Lo, rc.Hi)
	passRate := float64(matched) / float64(total)

	costA := float64(matched)
	probe := m.ProbeFraction * float64(total)
	costB := probe + 0.1*float64(matched) // probe + bitmap build/testing
	costC := probe + float64(vc.K)*Theta
	// C is only feasible when enough of the candidate stream passes the
	// attribute check; otherwise it degenerates into repeated re-fetches.
	cFeasible := passRate >= 1/Theta*0.5

	best, bestCost := StratA, costA
	if costB < bestCost {
		best, bestCost = StratB, costB
	}
	if cFeasible && costC < bestCost {
		best = StratC
	}
	return best
}

// StrategyD: cost-based selection among A, B and C (AnalyticDB-V's
// approach). Returns the results and the strategy chosen.
func StrategyD(s Source, rc RangeCond, vc VecCond, m CostModel) ([]topk.Result, string) {
	plan := vc.Trace.Start(obs.FilterPlan)
	chosen := m.Choose(s, rc, vc)
	vc.Trace.SetString(obs.Chosen, chosen)
	plan.End()
	switch chosen {
	case StratA:
		return StrategyA(s, rc, vc), StratA
	case StratC:
		return StrategyC(s, rc, vc), StratC
	default:
		return StrategyB(s, rc, vc), StratB
	}
}

// Partition is a Source covering one attribute range of a partitioned
// dataset (strategy E).
type Partition interface {
	Source
	// AttrBounds returns the partition's [min, max] on the partitioning
	// attribute.
	AttrBounds(attr int) (lo, hi int64, ok bool)
}

// StrategyE: Milvus's partition-based filtering. The dataset is partitioned
// offline on the frequently-searched attribute; a query touches only the
// partitions whose range overlaps the predicate, and partitions fully
// covered by the predicate skip the attribute check entirely — pure vector
// query processing.
func StrategyE(parts []Partition, rc RangeCond, vc VecCond, m CostModel) []topk.Result {
	// The caller's probe budget is sized for the whole dataset; partitions
	// are ~ρ× smaller, so each picks its own budget (0 = index default /
	// structural minimum) — otherwise every partition over-scans by ρ×.
	vc.Trace.SetString(obs.FilterStrategy, StratE)
	pvc := vc
	pvc.Nprobe = 0
	// Per-partition delegation runs untraced: the inner strategies would
	// otherwise overwrite filter_strategy=E with their own letter. The
	// partition stage instead counts what happened to each partition.
	pvc.Trace = nil
	lists := make([][]topk.Result, 0, len(parts))
	for _, p := range parts {
		span := vc.Trace.Start(obs.Partition)
		lo, hi, ok := p.AttrBounds(rc.Attr)
		switch {
		case !ok:
			vc.Trace.AddPartition(obs.PartNoBounds)
		case hi < rc.Lo || lo > rc.Hi:
			vc.Trace.AddPartition(obs.PartPruned) // no overlap
		case lo >= rc.Lo && hi <= rc.Hi:
			// Fully covered: every vector qualifies, no attribute check.
			vc.Trace.AddPartition(obs.PartFullVector)
			lists = append(lists, p.VectorQuery(pvc.Field, pvc.Query, pvc.K, pvc.Nprobe))
		default:
			vc.Trace.AddPartition(obs.PartDelegated)
			res, _ := StrategyD(p, rc, pvc, m)
			lists = append(lists, res)
		}
		span.End()
	}
	merge := vc.Trace.Start(obs.TopkMerge)
	defer merge.End()
	return topk.Merge(vc.K, lists...)
}
