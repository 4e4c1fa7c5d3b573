package query

import (
	"strconv"

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
	vc.Trace.Annotate("filter_strategy", StratA)
	filter := vc.Trace.StartSpan("attr_filter")
	rows := s.RangeRows(rc.Attr, rc.Lo, rc.Hi)
	filter.AnnotateInt("rows", int64(len(rows)))
	filter.End()
	return ExactScan(s, rows, vc)
}

// ExactScan is strategy A's second half, shared with the engine's prefilter
// runner (which also resolves IN-lists to rows): every row of rows is
// compared against the query vector.
func ExactScan(s Source, rows []int64, vc VecCond) []topk.Result {
	scan := vc.Trace.StartSpan("exact_scan")
	defer scan.End()
	h := topk.New(vc.K)
	for i, id := range rows {
		// Cancellation point: the qualifying set can span the whole
		// collection, so a dead query must not finish the scan.
		if i&255 == 0 && vc.cancelled() {
			break
		}
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
	vc.Trace.Annotate("filter_strategy", StratB)
	filter := vc.Trace.StartSpan("attr_filter")
	pf, ok := s.CompileRange(rc.Attr, rc.Lo, rc.Hi)
	if !ok {
		filter.End()
		return nil
	}
	defer pf.Release()
	filter.AnnotateInt("rows", int64(pf.Matched))
	filter.End()
	AnnotatePushed(vc.Trace, pf)
	if pf.Matched == 0 {
		return nil
	}
	return s.VectorQueryPushed(vc.Field, vc.Query, vc.K, vc.Nprobe, pf)
}

// AnnotatePushed records the pushed filter's selectivity and evaluation
// mode on the trace, so cost-based decisions are auditable afterwards.
func AnnotatePushed(tr *obs.Trace, pf *PushedFilter) {
	tr.Annotate("filter_mode", pf.Mode)
	tr.Annotate("filter_selectivity", strconv.FormatFloat(pf.Selectivity(), 'f', 4, 64))
}

// StrategyC: vector-first-attribute-full-scan. Vector query processing
// fetches θ·k candidates; the attribute constraint is verified afterwards.
// If fewer than k survive, the fetch factor doubles (up to the full data
// size) — the paper's "to make sure there are k final results".
func StrategyC(s Source, rc RangeCond, vc VecCond) []topk.Result {
	vc.Trace.Annotate("filter_strategy", StratC)
	fetch := int(float64(vc.K)*Theta + 0.5)
	if fetch < vc.K {
		fetch = vc.K
	}
	total := s.TotalRows()
	for {
		if vc.cancelled() {
			return nil
		}
		vec := vc.Trace.StartSpan("vector_first")
		vec.AnnotateInt("fetch", int64(fetch))
		cands := s.VectorQuery(vc.Field, vc.Query, fetch, vc.Nprobe)
		vec.End()
		verify := vc.Trace.StartSpan("verify")
		h := topk.New(vc.K)
		for _, c := range cands {
			v, ok := s.AttrValue(rc.Attr, c.ID)
			if !ok || v < rc.Lo || v > rc.Hi {
				continue
			}
			h.Push(c.ID, c.Distance)
		}
		verify.AnnotateInt("candidates", int64(len(cands)))
		verify.AnnotateInt("passed", int64(h.Len()))
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
	plan := vc.Trace.StartSpan("filter_plan")
	chosen := m.Choose(s, rc, vc)
	plan.Annotate("chosen", chosen)
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
	vc.Trace.Annotate("filter_strategy", StratE)
	pvc := vc
	pvc.Nprobe = 0
	// Per-partition delegation runs untraced: the inner strategies would
	// otherwise overwrite filter_strategy=E with their own letter. Each
	// partition instead gets a span recording what happened to it.
	pvc.Trace = nil
	lists := make([][]topk.Result, 0, len(parts))
	for i, p := range parts {
		if vc.cancelled() {
			break
		}
		span := vc.Trace.StartSpan("partition")
		span.AnnotateInt("partition", int64(i))
		lo, hi, ok := p.AttrBounds(rc.Attr)
		if !ok {
			span.Annotate("action", "no_bounds")
			span.End()
			continue
		}
		if hi < rc.Lo || lo > rc.Hi {
			span.Annotate("action", "pruned")
			span.End()
			continue // no overlap: pruned
		}
		if lo >= rc.Lo && hi <= rc.Hi {
			// Fully covered: every vector qualifies, no attribute check.
			span.Annotate("action", "full_vector")
			lists = append(lists, p.VectorQuery(pvc.Field, pvc.Query, pvc.K, pvc.Nprobe))
			span.End()
			continue
		}
		res, strat := StrategyD(p, rc, pvc, m)
		span.Annotate("action", "delegated")
		span.Annotate("strategy", strat)
		lists = append(lists, res)
		span.End()
	}
	merge := vc.Trace.StartSpan("topk_merge")
	defer merge.End()
	return topk.Merge(vc.K, lists...)
}

// FreqTracker maintains the per-attribute query frequencies strategy E uses
// to decide which attribute to partition on ("we maintain the frequency of
// each searched attribute in a hash table").
type FreqTracker struct {
	counts map[int]int64
}

// NewFreqTracker creates an empty tracker.
func NewFreqTracker() *FreqTracker { return &FreqTracker{counts: map[int]int64{}} }

// Touch records that a query referenced attr.
func (t *FreqTracker) Touch(attr int) { t.counts[attr]++ }

// Hottest returns the most-queried attribute (ok=false when none recorded).
func (t *FreqTracker) Hottest() (attr int, ok bool) {
	var best int64 = -1
	for a, c := range t.counts {
		if c > best || (c == best && a < attr) {
			attr, best = a, c
		}
	}
	return attr, best >= 0
}

// Count reports the recorded frequency of attr.
func (t *FreqTracker) Count(attr int) int64 { return t.counts[attr] }
