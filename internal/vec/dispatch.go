package vec

import "sync/atomic"

// Kernel-tier dispatch accounting: when enabled, every call through the
// hooked distance entry points (L2Squared, Dot and their batch variants)
// bumps a per-tier counter, so /metrics can show which SIMD tier actually
// served queries. Off by default — the hot path then pays one atomic load
// of the enable flag and nothing else.

var (
	countDispatch       atomic.Bool
	dispatchCounts      [int(LevelAVX512) + 1]atomic.Int64
	batchDispatchCounts [int(LevelAVX512) + 1]atomic.Int64
	codeDispatchCounts  [int(LevelAVX512) + 1]atomic.Int64
)

// SetDispatchCounting turns per-tier dispatch counting on or off.
func SetDispatchCounting(on bool) { countDispatch.Store(on) }

// DispatchCounting reports whether dispatch counting is enabled.
//
//lint:allow testonly other packages' kernel-guard tests save and restore counting around a scan
func DispatchCounting() bool { return countDispatch.Load() }

// DispatchCount returns the number of hooked-kernel dispatches served by
// the given tier since the last reset.
func DispatchCount(l Level) int64 {
	if l < LevelScalar || l > LevelAVX512 {
		return 0
	}
	return dispatchCounts[l].Load()
}

// BatchDispatchCount returns the number of hooked *batch* kernel dispatches
// (L2SquaredBatch/DotBatch/bound/tile entry points) served by the given tier
// since the last reset. The internal scan paths are required to go through
// these entry points — the conformance tests assert this count is non-zero
// after a scan, which is the guard against a path silently regressing to a
// per-pair loop over a contiguous block.
func BatchDispatchCount(l Level) int64 {
	if l < LevelScalar || l > LevelAVX512 {
		return 0
	}
	return batchDispatchCounts[l].Load()
}

// BatchDispatchTotal sums batch-kernel dispatches across all tiers.
//
//lint:allow testonly other packages' kernel-guard tests prove a scan reached the batch kernels
func BatchDispatchTotal() int64 {
	var t int64
	for i := range batchDispatchCounts {
		t += batchDispatchCounts[i].Load()
	}
	return t
}

// CodeDispatchTotal sums code-tile dispatches (CodeL2Tile) across all
// tiers: the coded scans' first pass over a block, counted apart from the
// float batch kernels that score its survivors.
//
//lint:allow testonly core's kernel-guard tests prove a coded scan reached the code tile
func CodeDispatchTotal() int64 {
	var t int64
	for i := range codeDispatchCounts {
		t += codeDispatchCounts[i].Load()
	}
	return t
}

// ResetDispatchCounts zeroes all per-tier dispatch counters: pairwise,
// batch and code.
//
//lint:allow testonly other packages' kernel-guard tests zero the counters before a scan
func ResetDispatchCounts() {
	for i := range dispatchCounts {
		dispatchCounts[i].Store(0)
		batchDispatchCounts[i].Store(0)
		codeDispatchCounts[i].Store(0)
	}
}

// Levels lists all kernel tiers, lowest first.
func Levels() []Level {
	return []Level{LevelScalar, LevelSSE, LevelAVX, LevelAVX2, LevelAVX512}
}

// countCurrent records one dispatch against the currently hooked tier.
func countCurrent() {
	if countDispatch.Load() {
		dispatchCounts[currentLevel.Load()].Add(1)
	}
}

// countCurrentCode records one code-tile dispatch against the currently
// hooked tier.
func countCurrentCode() {
	if countDispatch.Load() {
		codeDispatchCounts[currentLevel.Load()].Add(1)
	}
}

// countCurrentBatch records one batch-kernel dispatch against the currently
// hooked tier.
func countCurrentBatch() {
	if countDispatch.Load() {
		batchDispatchCounts[currentLevel.Load()].Add(1)
	}
}
