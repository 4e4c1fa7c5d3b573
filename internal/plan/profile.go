package plan

import "vectordb/internal/vec"

// Profile holds the machine primitives every cost estimate is built from.
// A profile is immutable once a planner holds it.
type Profile struct {
	// KernelDimsPerSec is the blocked batch-kernel throughput per SIMD
	// tier (the fig12 measurement shape), in distance-dims per second.
	KernelDimsPerSec map[string]float64
	// SQ8DimsPerSec is the fused ADC scan throughput over uint8 codes.
	SQ8DimsPerSec float64

	// RowOverheadNs + dim·RowNsPerDim models one single-row exact
	// distance call (strategy A's inner loop, sans the ID lookup).
	RowOverheadNs float64
	RowNsPerDim   float64
	// LookupNs is one sorted-ID binary search (DistanceByID's posOf).
	LookupNs float64

	// BitsetNsPerRow·rows + BitsetNsPerMatch·matches models one
	// predicate→bitset compile (colstore.CompilePred): the per-row word
	// pass plus the per-match zone-map/postings walk.
	BitsetNsPerRow   float64
	BitsetNsPerMatch float64
}

// prior is the profile a planner prices with unless its Config fixes one:
// medians of the calibration pass that measured each primitive
// in-process up to commit 81f5983, run by a test in internal/plan 21
// times per VECTORDB_SIMD tier under `go test` and `go test -tags
// purego` on a 2-vCPU AVX-512 x86-64 host. A tier's kernel rate comes
// from the build that runs it: the assembly rate where the tier is
// vec.Vectorized, the purego rate elsewhere. The other primitives showed
// no tier dependence above run-to-run noise, so each is the median of
// all 210 runs. On a 1,120-shape filter-strategy grid the prior and
// fresh calibrations at the default tier disagreed on 0.2 % of shapes,
// as two fresh calibrations did.
var prior = func() *Profile {
	asm := map[vec.Level]float64{vec.LevelAVX2: 1.07e10, vec.LevelAVX512: 2.44e10}
	goRate := map[vec.Level]float64{
		vec.LevelScalar: 1.37e9, vec.LevelSSE: 2.12e9, vec.LevelAVX: 1.98e9,
		vec.LevelAVX2: 2.02e9, vec.LevelAVX512: 1.93e9,
	}
	kernel := map[string]float64{}
	for _, l := range vec.Levels() {
		kernel[l.String()] = goRate[l]
		if vec.Vectorized(l) {
			kernel[l.String()] = asm[l]
		}
	}
	return &Profile{
		KernelDimsPerSec: kernel,
		SQ8DimsPerSec:    9.59e8,
		RowOverheadNs:    7.10,
		RowNsPerDim:      0.501,
		LookupNs:         107,
		BitsetNsPerRow:   0.00305,
		BitsetNsPerMatch: 1.68,
	}
}()

// kernelNsPerDim is the CPU scan cost per distance-dim at the active SIMD
// tier (or the fused ADC rate for quantized codes).
func (p *Profile) kernelNsPerDim(sq8 bool) float64 {
	if sq8 {
		return nsPerUnit(p.SQ8DimsPerSec)
	}
	return nsPerUnit(p.KernelDimsPerSec[vec.CurrentLevel().String()])
}

// nsPerUnit inverts a units-per-second rate into ns-per-unit, guarding
// against unset/zero rates (fall back to a conservative 1 GB-ish rate so
// costs stay finite and positive).
func nsPerUnit(rate float64) float64 {
	if rate <= 0 {
		rate = 1e9
	}
	return 1e9 / rate
}
