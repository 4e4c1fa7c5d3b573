// Package plan implements the cost-based query planner: a priced
// per-query estimate and label for the CPU venue a query runs on (flat scan
// or IVF probe), and a choice of filter strategy (pushdown vs
// attribute-first exact scan vs filtered graph traversal).
//
// The filtered-scan grid (EXPERIMENTS.md) shows IVF pushdown losing below
// ~10% selectivity: the O(n) bitset compile outweighs the scan. This package
// prices each candidate with a handful of measured machine primitives
// (per-SIMD-tier kernel throughput, SQ8 ADC throughput, bitset compile
// ns/row, per-row exact distance cost; profile.go's prior) and picks the
// cheapest — recording the decision, its estimate, and later the
// estimate-vs-actual ratio so mispredictions are auditable
// (vectordb_plan_decisions_total / vectordb_plan_mispredict_total, plus
// plan= trace annotations written by the callers).
//
// Only venues the serving engine can execute are priced here. The paper's
// device placement (Fig. 13's pure-GPU vs hybrid crossover) runs on a
// simulated device, so its pricing lives with that model: the sq8h tests
// price the device plans from the device's advertised rates, and
// internal/index/sq8h switches plans on its own batch-size Threshold.
//
// The planner changes venue, never results: callers only offer venues that
// return identical result sets for the query at hand, so conformance gates
// hold whatever the planner picks.
package plan

import (
	"math"
	"sync/atomic"
	"time"

	"vectordb/internal/obs"
)

// Venue is where a vector query executes.
type Venue string

const (
	// VenueFlatCPU is the brute-force blocked scan over every row.
	VenueFlatCPU Venue = "flat_cpu"
	// VenueIVFCPU probes an inverted-file index on the CPU.
	VenueIVFCPU Venue = "ivf_cpu"
)

// Strategy is how an attribute-filtered query evaluates its predicate.
type Strategy string

const (
	// StrategyPushdown compiles the predicate to per-segment bitsets
	// evaluated beneath the batch kernels (strategy B with pushdown).
	StrategyPushdown Strategy = "pushdown"
	// StrategyPrefilter resolves the predicate first and runs an exact
	// distance scan over only the qualifying rows (strategy A).
	StrategyPrefilter Strategy = "prefilter"
	// StrategyGraph is pushdown over a graph index: filtered traversal
	// with skip-but-expand and beam widening.
	StrategyGraph Strategy = "graph"
)

// QueryShape is everything venue placement looks at for one query.
type QueryShape struct {
	NQ  int // queries in the batch
	K   int
	Dim int

	// Residency split of the candidate rows (core/tier.go): hot rows live
	// on the Go heap, mapped rows are read in place from an mmap'd extent,
	// cold rows must first promote from spill.
	HotRows, MappedRows, ColdRows int

	// IVF geometry when an inverted-file index serves the segments
	// (0 = unindexed / unknown, estimated from the row count).
	Nlist, Nprobe int
	// SQ8 marks quantized codes (the scan leg runs the fused ADC kernel).
	SQ8 bool

	// QueueDepth is the live exec-pool backlog (exec.Pool.Backlog, less
	// the planning query's own slot);
	// Workers the pool size. Costs scale with the bucketed load.
	QueueDepth int
	Workers    int
}

// Rows is the total candidate row count.
func (s QueryShape) Rows() int { return s.HotRows + s.MappedRows + s.ColdRows }

// FilterShape is everything filter-strategy selection looks at.
type FilterShape struct {
	Rows    int // total physical rows (bitset compile domain)
	Matched int // zone-map / postings-estimated predicate matches
	Dim     int
	K       int

	Indexed       bool // an IVF-family index serves the vector leg
	Graph         bool // a graph index serves it (HNSW/RNSG)
	SQ8           bool // quantized scan leg
	Nlist, Nprobe int

	QueueDepth int
	Workers    int
}

// Selectivity is Matched/Rows (0 on an empty source).
func (s FilterShape) Selectivity() float64 {
	if s.Rows <= 0 {
		return 0
	}
	return float64(s.Matched) / float64(s.Rows)
}

// Decision is one planner choice with its estimate. Exactly one of Venue
// and Strategy is set, depending on which question was asked.
type Decision struct {
	Venue    Venue
	Strategy Strategy
	Est      time.Duration // estimated cost of the chosen plan
}

// Choice is the decision's label value (venue or strategy name).
func (d Decision) Choice() string {
	if d.Venue != "" {
		return string(d.Venue)
	}
	return string(d.Strategy)
}

// Config tunes a planner.
type Config struct {
	// Obs receives vectordb_plan_* metrics; nil keeps handles unscraped.
	Obs *obs.Registry
	// Profile fixes the cost profile (deterministic tests). Nil prices
	// with the measured prior.
	Profile *Profile
}

// Planner prices query plans against a cost profile. Safe for
// concurrent use.
type Planner struct {
	met  *planMetrics
	prof atomic.Pointer[Profile]
}

// New creates a planner.
func New(cfg Config) *Planner {
	p := &Planner{met: newPlanMetrics(cfg.Obs)}
	p.UseProfile(cfg.Profile)
	return p
}

// UseProfile replaces the cost profile; nil restores the prior.
func (p *Planner) UseProfile(prof *Profile) {
	if prof == nil {
		prof = prior
	}
	p.prof.Store(prof)
}

// Profile returns the active cost profile.
func (p *Planner) Profile() *Profile { return p.prof.Load() }

// fin clamps a cost estimate to a finite non-negative value: the
// estimator never returns NaN or a negative, whatever the inputs.
func fin(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 1) {
		return math.MaxFloat64 / 16
	}
	if x < 0 || math.IsInf(x, -1) {
		return 0
	}
	return x
}

// coldPenalty is the per-row cost of spilled rows, which must promote
// before they scan, relative to hot rows.
const coldPenalty = 6

// effRows weights the candidate rows by residency: cold rows pay the
// promote-from-spill path. Mapped rows cost what hot rows do — a scan
// reads the mapping in place with the resident scan body, and core's
// BenchmarkTieredSearch runs /mapped within noise of /resident.
func effRows(s QueryShape) float64 {
	return float64(s.HotRows+s.MappedRows) + coldPenalty*float64(s.ColdRows)
}

// queueBucket coarsens the live backlog so load only shifts costs at
// order-of-magnitude boundaries: a shape priced twice under the same
// bucket gets the same estimate.
func queueBucket(depth, workers int) int {
	if workers <= 0 {
		workers = 1
	}
	switch {
	case depth <= 0:
		return 0
	case depth < workers:
		return 1
	case depth < 4*workers:
		return 2
	default:
		return 3
	}
}

// loadFactor scales CPU costs by the bucketed pool backlog.
func loadFactor(depth, workers int) float64 {
	return 1 + 0.75*float64(queueBucket(depth, workers))
}

// ivfGeometry fills in the engine's defaults when the caller does not
// know the index parameters (ivf.Builder: nlist ≈ n/64 clamped to
// [1, 4096], nprobe = max(1, nlist/16)).
func ivfGeometry(rows, nlist, nprobe int) (nl, np int) {
	nl, np = nlist, nprobe
	if nl <= 0 {
		nl = rows / 64
		if nl < 1 {
			nl = 1
		}
		if nl > 4096 {
			nl = 4096
		}
	}
	if np <= 0 {
		np = nl / 16
		if np < 1 {
			np = 1
		}
	}
	if np > nl {
		np = nl
	}
	return nl, np
}

// Per-row structural constants that the profile does not carry: pushing
// a candidate through the top-k heap, and triaging (skipping) a
// filtered-out row beneath the kernels. Triage is not just the word test —
// the masked probe still walks bucket layouts and block boundaries per
// skipped row, ~3ns/row measured on the IVF scan path.
const (
	heapNsPerRow   = 0.6
	triageNsPerRow = 3.0
)

// CostFlatCPU prices a brute-force blocked scan: every effective row's
// dims through the batch kernel of the active SIMD tier, plus heap
// maintenance, scaled by pool load.
func (p *Planner) CostFlatCPU(s QueryShape) float64 {
	prof := p.Profile()
	rows := effRows(s)
	perQ := rows*float64(s.Dim)*prof.kernelNsPerDim(false) + rows*heapNsPerRow
	return fin(float64(s.NQ) * perQ * loadFactor(s.QueueDepth, s.Workers))
}

// CostIVFCPU prices an inverted-file probe: the coarse quantizer over
// nlist centroids plus the scan of the probed fraction of rows (fused SQ8
// ADC when the codes are quantized).
func (p *Planner) CostIVFCPU(s QueryShape) float64 {
	prof := p.Profile()
	nl, np := ivfGeometry(s.Rows(), s.Nlist, s.Nprobe)
	frac := float64(np) / float64(nl)
	rows := effRows(s) * frac
	perQ := float64(nl)*float64(s.Dim)*prof.kernelNsPerDim(false) +
		rows*float64(s.Dim)*prof.kernelNsPerDim(s.SQ8) +
		rows*heapNsPerRow
	return fin(float64(s.NQ) * perQ * loadFactor(s.QueueDepth, s.Workers))
}

// CostVenue dispatches to the venue's estimator.
func (p *Planner) CostVenue(v Venue, s QueryShape) float64 {
	switch v {
	case VenueFlatCPU:
		return p.CostFlatCPU(s)
	case VenueIVFCPU:
		return p.CostIVFCPU(s)
	default:
		return fin(math.MaxFloat64)
	}
}

// PlaceQuery picks the cheapest execution venue among the candidates the
// caller can serve result-identically; the engine offers exactly one, so
// the decision is its estimate and label. The unused first parameter (a
// collection/field scope) stays because the benchmark module calls
// PlaceQuery with it; it goes when that caller does (ROADMAP slice 5b).
func (p *Planner) PlaceQuery(_ string, s QueryShape, venues ...Venue) Decision {
	if len(venues) == 0 {
		venues = []Venue{VenueFlatCPU}
	}
	best, bestCost := venues[0], p.CostVenue(venues[0], s)
	for _, v := range venues[1:] {
		if c := p.CostVenue(v, s); c < bestCost {
			best, bestCost = v, c
		}
	}
	d := Decision{Venue: best, Est: time.Duration(bestCost)}
	p.met.decision(d.Choice())
	return d
}

// CostPrefilter prices strategy A: resolve the predicate through the
// sorted column / postings, then one exact per-row distance (ID lookup +
// single-row kernel call) per match.
func (p *Planner) CostPrefilter(s FilterShape) float64 {
	prof := p.Profile()
	perRow := prof.LookupNs + prof.RowOverheadNs + float64(s.Dim)*prof.RowNsPerDim
	return fin(float64(s.Matched) * perRow * loadFactor(s.QueueDepth, s.Workers))
}

// CostPushdown prices strategy B with pushdown: compile the predicate to
// per-segment bitsets (a per-match walk plus a per-row word pass), then
// the vector leg over the probed fraction — triage word ops on skipped
// rows, kernel dims on matches.
func (p *Planner) CostPushdown(s FilterShape) float64 {
	prof := p.Profile()
	compile := float64(s.Rows)*prof.BitsetNsPerRow + float64(s.Matched)*prof.BitsetNsPerMatch
	frac := 1.0
	coarse := 0.0
	if s.Indexed || s.Graph {
		nl, np := ivfGeometry(s.Rows, s.Nlist, s.Nprobe)
		frac = float64(np) / float64(nl)
		coarse = float64(nl) * float64(s.Dim) * prof.kernelNsPerDim(false)
	}
	scan := coarse +
		frac*float64(s.Rows)*triageNsPerRow +
		frac*float64(s.Matched)*(float64(s.Dim)*prof.kernelNsPerDim(s.SQ8)+heapNsPerRow)
	if s.Graph {
		// Filtered traversal visits ~K·beam/selectivity nodes (beam
		// widening keeps recall at low selectivity), capped by the graph.
		sel := s.Selectivity()
		if sel < 1e-3 {
			sel = 1e-3
		}
		visits := float64(s.K) * 16 / sel
		if max := float64(s.Rows); visits > max {
			visits = max
		}
		scan = visits * (float64(s.Dim)*prof.kernelNsPerDim(false) + heapNsPerRow)
	}
	return fin(compile + scan*loadFactor(s.QueueDepth, s.Workers))
}

// PickFilterStrategy chooses the filter strategy for one query from the
// zone-map-estimated selectivity: below the priced crossover the
// attribute-first exact scan (strategy A) wins because the O(n) bitset
// compile outweighs the partial scan; above it the pushdown path wins.
// Deterministic in the shape.
func (p *Planner) PickFilterStrategy(s FilterShape) Decision {
	costA := p.CostPrefilter(s)
	costPush := p.CostPushdown(s)
	d := Decision{Strategy: StrategyPushdown, Est: time.Duration(costPush)}
	if s.Graph {
		d.Strategy = StrategyGraph
	}
	if costA < costPush {
		d = Decision{Strategy: StrategyPrefilter, Est: time.Duration(costA)}
	}
	p.met.decision(d.Choice())
	return d
}

// PickPushdown records a pushdown decision without arbitration — for
// predicates the engine cannot resolve to a row enumeration (arbitrary
// and/or/not trees), where the prefilter path is not executable and only
// the pushdown estimate is meaningful.
func (p *Planner) PickPushdown(s FilterShape) Decision {
	d := Decision{Strategy: StrategyPushdown, Est: time.Duration(p.CostPushdown(s))}
	if s.Graph {
		d.Strategy = StrategyGraph
	}
	p.met.decision(d.Choice())
	return d
}

// Mispredict bounds: an actual latency this many times off the estimate
// (beyond the noise floor) counts as a misprediction.
const (
	mispredictRatio = 8.0
	mispredictFloor = 50 * time.Microsecond
)

// Observe feeds the actual latency of an executed plan back to the
// planner's audit metrics. Small queries are noise-floored; beyond that,
// an estimate off by more than 8× either way is a misprediction.
func (p *Planner) Observe(d Decision, actual time.Duration) {
	if actual < mispredictFloor && d.Est < mispredictFloor {
		return
	}
	est := float64(d.Est)
	if est <= 0 {
		est = 1
	}
	ratio := float64(actual) / est
	if ratio > mispredictRatio || ratio < 1/mispredictRatio {
		p.met.mispredict(d.Choice())
	}
}
