package plan

import (
	"runtime"
	"sort"
	"sync"
	"time"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/quantizer"
	"vectordb/internal/vec"
)

// Profile holds the calibrated machine primitives every cost estimate is
// built from. A profile is immutable after calibration; persist.go writes
// it beside the tier directory keyed by Fingerprint.
type Profile struct {
	// Fingerprint identifies the hardware/runtime shape the measurements
	// belong to (schema version, detected SIMD tier, GOMAXPROCS); a
	// mismatch on load marks the profile stale.
	Fingerprint string `json:"fingerprint"`
	CreatedUnix int64  `json:"created_unix"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	// KernelDimsPerSec is the blocked batch-kernel throughput per SIMD
	// tier (the fig12 measurement shape), in distance-dims per second.
	KernelDimsPerSec map[string]float64 `json:"kernel_dims_per_sec"`
	// SQ8DimsPerSec is the fused ADC scan throughput over uint8 codes.
	SQ8DimsPerSec float64 `json:"sq8_dims_per_sec"`

	// RowOverheadNs + dim·RowNsPerDim models one single-row exact
	// distance call (strategy A's inner loop, sans the ID lookup).
	RowOverheadNs float64 `json:"row_overhead_ns"`
	RowNsPerDim   float64 `json:"row_ns_per_dim"`
	// LookupNs is one sorted-ID binary search (DistanceByID's posOf).
	LookupNs float64 `json:"lookup_ns"`

	// BitsetNsPerRow·rows + BitsetNsPerMatch·matches models one
	// predicate→bitset compile (colstore.CompilePred): the per-row word
	// pass plus the per-match zone-map/postings walk.
	BitsetNsPerRow   float64 `json:"bitset_ns_per_row"`
	BitsetNsPerMatch float64 `json:"bitset_ns_per_match"`
}

// kernelNsPerDim is the CPU scan cost per distance-dim at the active SIMD
// tier (or the fused ADC rate for quantized codes).
func (p *Profile) kernelNsPerDim(sq8 bool) float64 {
	if sq8 {
		return nsPerUnit(p.SQ8DimsPerSec)
	}
	rate := p.KernelDimsPerSec[vec.CurrentLevel().String()]
	if rate <= 0 {
		for _, r := range p.KernelDimsPerSec {
			if r > rate {
				rate = r
			}
		}
	}
	return nsPerUnit(rate)
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

var (
	sharedOnce sync.Once
	sharedProf *Profile
)

// SharedProfile runs the calibration pass once per process and returns
// the shared result — the "first-use, lazily" path; servers that persist
// calibration call Calibrate/LoadOrCalibrate instead.
func SharedProfile() *Profile {
	sharedOnce.Do(func() { sharedProf = Calibrate() })
	return sharedProf
}

// Calibration workload sizing: large enough to amortize dispatch, small
// enough that the whole pass stays in the low tens of milliseconds.
const (
	calRows = 2048
	calDim  = 128
)

// Calibrate measures every profile primitive on this machine: per-tier
// batch-kernel throughput (the fig12 measurement shape), fused SQ8 ADC
// throughput, single-row distance and ID-lookup costs, and bitset compile
// cost.
func Calibrate() *Profile {
	data, query := calData(calRows, calDim)
	p := &Profile{
		CreatedUnix:      time.Now().Unix(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		KernelDimsPerSec: map[string]float64{},
	}
	p.Fingerprint = Fingerprint()

	out := make([]float32, calRows)
	for _, l := range vec.Levels() {
		l := l
		ns := measure(func() {
			//lint:allow kerneldispatch calibration measures each SIMD tier explicitly, like the fig12 experiment
			vec.L2SquaredBatchAt(l, query, data, calDim, out)
		})
		p.KernelDimsPerSec[l.String()] = ratePerSec(calRows*calDim, ns)
	}

	if sq, err := quantizer.TrainSQ8(data, calDim); err == nil {
		codes := make([]uint8, calRows*calDim)
		for i := 0; i < calRows; i++ {
			sq.Encode(data[i*calDim:(i+1)*calDim], codes[i*calDim:(i+1)*calDim])
		}
		qt := sq.L2Query(query)
		ns := measure(func() { qt.DistanceBatch(codes, out) })
		p.SQ8DimsPerSec = ratePerSec(calRows*calDim, ns)
	}

	p.RowOverheadNs, p.RowNsPerDim = calibrateRowDistance(data, query)
	p.LookupNs = calibrateLookup()
	p.BitsetNsPerRow, p.BitsetNsPerMatch = calibrateBitset()
	return p
}

// calData builds a deterministic pseudo-random dataset (seeded LCG, no
// clock involvement) plus one query row.
func calData(rows, dim int) (data, query []float32) {
	data = make([]float32, rows*dim)
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float32 {
		state = state*6364136223846793005 + 1442695040888963407
		return float32(int32(state>>33)) / float32(1<<31)
	}
	for i := range data {
		data[i] = next()
	}
	query = make([]float32, dim)
	for i := range query {
		query[i] = next()
	}
	return data, query
}

// measure times one op: warm once, then repeat until ≥500µs of samples,
// returning ns per op.
func measure(op func()) float64 {
	op()
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed >= 500*time.Microsecond || iters >= 1<<20 {
			return float64(elapsed.Nanoseconds()) / float64(iters)
		}
		iters *= 2
	}
}

func ratePerSec(units int, nsPerOp float64) float64 {
	if nsPerOp <= 0 {
		nsPerOp = 1
	}
	return float64(units) / nsPerOp * 1e9
}

// calibrateRowDistance fits t(dim) = overhead + dim·perDim from
// single-row exact distance calls at two dimensionalities — the strategy-A
// inner loop, which cannot amortize dispatch across rows.
func calibrateRowDistance(data, query []float32) (overheadNs, perDimNs float64) {
	var sink float32
	perCall := func(d int) float64 {
		rows := len(data) / calDim
		ns := measure(func() {
			for i := 0; i < rows; i++ {
				row := data[i*calDim : i*calDim+d]
				sink += vec.L2Squared(query[:d], row)
			}
		})
		return ns / float64(rows)
	}
	d0, d1 := 32, calDim
	t0, t1 := perCall(d0), perCall(d1)
	_ = sink
	perDimNs = (t1 - t0) / float64(d1-d0)
	if perDimNs <= 0 {
		perDimNs = t1 / float64(d1)
	}
	overheadNs = t0 - perDimNs*float64(d0)
	if overheadNs < 0 {
		overheadNs = 0
	}
	return overheadNs, perDimNs
}

// calibrateLookup times one binary search over a sorted ID array — the
// posOf step of every DistanceByID in strategy A.
func calibrateLookup() float64 {
	const n = 1 << 15
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i) * 3
	}
	probe := 0
	var hit int
	ns := measure(func() {
		probe = (probe*31 + 7) % n
		target := ids[probe]
		hit = sort.Search(n, func(i int) bool { return ids[i] >= target })
	})
	_ = hit
	return ns
}

// calibrateBitset fits compile(rows, matches) = rows·perRow +
// matches·perMatch from two runs, at different selectivities over the same
// column, of the RangePred compile every filtered query runs
// (AttributeColumn.FillRange into a cleared bitset).
func calibrateBitset() (perRowNs, perMatchNs float64) {
	const n = 1 << 15
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i % 4096)
	}
	col := colstore.BuildAttributeColumn(values, nil)
	bs := bitset.New(n)
	run := func(hi int64) float64 {
		return measure(func() {
			bs.Reset(n)
			col.FillRange(0, hi, bs)
		})
	}
	// Both points sit on FillRange's per-match side of its crossover: the
	// prefilter/pushdown decision this prices is made at narrow ranges,
	// and past half the column the compile costs less than the fit says.
	tLo := run(40)   // ~1% selectivity
	tHi := run(1023) // 25% selectivity
	mLo, mHi := float64(n)*41/4096, float64(n)*1024/4096
	perMatchNs = (tHi - tLo) / (mHi - mLo)
	if perMatchNs < 0 {
		perMatchNs = 0
	}
	perRowNs = (tLo - mLo*perMatchNs) / float64(n)
	if perRowNs <= 0 {
		perRowNs = 0.05
	}
	return perRowNs, perMatchNs
}
