package index

import (
	"math"

	"vectordb/internal/bitset"
	"vectordb/internal/bufferpool"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// ScanBlockRows is the row-block size of the blocked scans: distances are
// computed one block at a time into a pooled buffer, then pushed through the
// heap. 256 rows keeps the buffer inside L1 while amortizing the kernel
// dispatch and the worst-bound refresh over a whole block.
const ScanBlockRows = 256

// FilterMode names how a blocked scan applies a pushed bitset.
type FilterMode uint8

const (
	// FilterAuto picks dense or sparse from the selection's selectivity.
	FilterAuto FilterMode = iota
	// FilterDense extracts maximal runs of surviving rows and feeds them to
	// the batch kernels in place; sub-threshold runs fall back to gathering.
	FilterDense
	// FilterSparse collects surviving rows into a compact list and routes
	// them through the gather kernels.
	FilterSparse
)

// DenseSelectivity is the dense/sparse crossover: scans whose fraction of
// surviving rows is at or above this run in dense (run-extraction) mode,
// below it in sparse (gather) mode. Calibrated with cmd/benchfilter (see
// BENCH_filter.json): above the threshold survivors cluster into runs long
// enough that in-place kernel calls beat copying, below it the word-skipping
// sparse iterator wins because whole empty words cost one load.
const DenseSelectivity = 0.10

// denseBlockDiv sets the block-occupancy crossover of the dense scan: a
// block whose survivor count m satisfies m*denseBlockDiv >= blockLen runs
// the batch kernel over the whole block in place, masking excluded rows at
// push time; emptier blocks gather their survivors. Computing a few extra
// distances beats copying 512 bytes per survivor once roughly a quarter of
// the block survives (calibrated with cmd/benchfilter; random 50% bits
// fragment into ~2-row runs, so run extraction alone degenerates to an
// all-gather scan).
const denseBlockDiv = 4

// ChooseFilterMode picks the scan mode for a selection that matched
// `matched` of `total` rows.
func ChooseFilterMode(matched, total int) FilterMode {
	if total <= 0 || float64(matched) >= DenseSelectivity*float64(total) {
		return FilterDense
	}
	return FilterSparse
}

// FilterModeName names the mode chosen for a given selectivity, for trace
// annotations (filter_mode=dense|sparse).
func FilterModeName(selectivity float64) string {
	if selectivity >= DenseSelectivity {
		return "dense"
	}
	return "sparse"
}

// Selection is the pushed-down filter of a blocked scan. The zero value
// selects every row. It is passed by value so unfiltered scans stay
// allocation-free.
//
// Bits is a dense bitset over *positions*; Pos maps scan row -> bit
// position (nil means row i is position i, the layout of flat scans and
// whole-segment scans; IVF bucket scans pass their per-bucket build-order
// positions). A row survives when its bit is set.
type Selection struct {
	Bits *bitset.Bitset
	Pos  []int32
	// PosSorted declares Pos non-decreasing (build-order bucket positions
	// are). It lets the dense scan skip a whole block when the bitset has
	// no set bit inside the block's position span — one ranged popcount
	// instead of a kernel dispatch, which halves the work when the filter
	// is correlated with insertion order. Never set it for unsorted Pos:
	// the span test would skip blocks that still hold survivors.
	PosSorted bool
	// Force pins the scan mode; FilterAuto (zero) decides by selectivity.
	// Benchmarks and conformance tests use it to compare both paths on
	// identical inputs.
	Force FilterMode
}

// matched counts surviving rows among the first n scan rows.
func (s Selection) matched(n int) int {
	if s.Bits == nil {
		return n
	}
	if s.Pos == nil {
		return s.Bits.CountRange(0, n)
	}
	c := 0
	for r := 0; r < n; r++ {
		if s.Bits.Test(int(s.Pos[r])) {
			c++
		}
	}
	return c
}

// ScanBlocked is the shared brute-force scan of every read path (flat
// indexes, unindexed segments, IVF_FLAT buckets): it streams the contiguous
// row-major block data (n rows of dim floats, ids aligned; ids == nil means
// row positions) into the caller-owned heap h, honoring the pushed-down
// selection.
//
// For L2 and IP it runs the register-blocked batch kernels one block at a
// time with a pooled distance buffer, feeding the heap's current worst
// distance into the L2 early-abandon kernel so top-k pruning reaches inside
// the block. A pushed bitset keeps the scan on the batch kernels: dense
// mode decides per block — full blocks run the kernels in place,
// mostly-full blocks run in place with excluded rows masked out at push
// time (a few wasted distances beat copying around them), emptier blocks
// divert survivors to the gather kernels — while sparse mode gathers
// survivors off the word-skipping bit iterator. An excluded row either
// never reaches a distance computation or has its distance discarded
// before the heap; it is never returned. Only metrics without a batch
// kernel (cosine, binary) fall back to the pairwise kernels, with the same
// worst-distance gating and the bit test ahead of the distance.
//
// The heap may arrive non-empty: its retained worst carries pruning across
// segments exactly as Segment.SearchInto documents.
func ScanBlocked(h *topk.Heap, metric vec.Metric, query, data []float32, dim int, ids []int64, sel Selection) {
	n := len(data) / dim
	if ids != nil {
		n = len(ids)
	}
	if n == 0 {
		return
	}
	idOf := func(i int) int64 { return int64(i) }
	if ids != nil {
		idOf = func(i int) int64 { return ids[i] }
	}
	worst := float32(math.Inf(1))
	if w, ok := h.Worst(); ok && h.Full() {
		worst = w
	}
	if !metric.BatchEligible() {
		scanPairwise(h, metric, query, data, dim, n, idOf, sel, worst)
		return
	}

	bp := bufferpool.GetFloats(ScanBlockRows)
	buf := *bp
	ip := metric == vec.IP
	if sel.Bits == nil {
		// Unfiltered: straight blocked scan.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := i0 + ScanBlockRows
			if i1 > n {
				i1 = n
			}
			chunk := data[i0*dim : i1*dim]
			if ip {
				vec.NegDotBatch(query, chunk, dim, buf)
			} else {
				vec.L2SquaredBatchBound(query, chunk, dim, worst, buf)
			}
			for r := 0; r < i1-i0; r++ {
				d := buf[r]
				if d >= worst {
					continue
				}
				h.Push(idOf(i0+r), d)
				if h.Full() {
					worst, _ = h.Worst()
				}
			}
		}
		bufferpool.PutFloats(bp)
		return
	}

	mode := sel.Force
	if mode == FilterAuto {
		mode = ChooseFilterMode(sel.matched(n), n)
	}

	// Pooled survivor list shared by both modes: sparse mode fills it from
	// the bit iterator, dense mode diverts sub-threshold runs into it so
	// fragmented regions still reach the kernels one gather dispatch per
	// block.
	gp := bufferpool.GetInt32s(ScanBlockRows)
	gather := (*gp)[:0]
	flush := func() {
		if len(gather) == 0 {
			return
		}
		if ip {
			vec.NegDotGather(query, data, dim, gather, buf)
		} else {
			vec.L2SquaredGatherBound(query, data, dim, gather, worst, buf)
		}
		for i, r := range gather {
			d := buf[i]
			if d >= worst {
				continue
			}
			h.Push(idOf(int(r)), d)
			if h.Full() {
				worst, _ = h.Worst()
			}
		}
		gather = gather[:0]
	}
	// emitRun feeds a contiguous surviving run [r0, r1) to the batch
	// kernels in place.
	emitRun := func(r0, r1 int) {
		for i0 := r0; i0 < r1; i0 += ScanBlockRows {
			i1 := i0 + ScanBlockRows
			if i1 > r1 {
				i1 = r1
			}
			chunk := data[i0*dim : i1*dim]
			if ip {
				vec.NegDotBatch(query, chunk, dim, buf)
			} else {
				vec.L2SquaredBatchBound(query, chunk, dim, worst, buf)
			}
			for r := 0; r < i1-i0; r++ {
				d := buf[r]
				if d >= worst {
					continue
				}
				h.Push(idOf(i0+r), d)
				if h.Full() {
					worst, _ = h.Worst()
				}
			}
		}
	}
	// emitMasked runs the batch kernel over the whole block [i0, i1) in
	// place and applies the bit test only to rows that beat the heap's
	// worst. On a memory-bound scan the kernel costs less than a
	// dependent-load bit test (plus a likely mispredict) per row, and
	// top-k pruning leaves few enough candidates that excluded rows are
	// almost always rejected by distance alone — so when most of a block
	// survives, a few wasted distances beat both per-row testing and
	// copying 512 bytes per survivor into the gather buffer (random
	// half-full bitsets fragment into ~2-row runs, so run extraction
	// alone cannot help).
	pass := sel.passFunc()
	emitMasked := func(i0, i1 int) {
		chunk := data[i0*dim : i1*dim]
		if ip {
			vec.NegDotBatch(query, chunk, dim, buf)
		} else {
			vec.L2SquaredBatchBound(query, chunk, dim, worst, buf)
		}
		for r := 0; r < i1-i0; r++ {
			d := buf[r]
			if d >= worst || !pass(i0+r) {
				continue
			}
			h.Push(idOf(i0+r), d)
			if h.Full() {
				worst, _ = h.Worst()
			}
		}
	}
	appendRow := func(r int) {
		gather = append(gather, int32(r))
		if len(gather) == ScanBlockRows {
			flush()
		}
	}

	switch {
	case mode == FilterSparse && sel.Pos == nil:
		// Word-skipping sparse iteration: empty words cost one load.
		for p := sel.Bits.NextSet(0); p >= 0 && p < n; p = sel.Bits.NextSet(p + 1) {
			appendRow(p)
		}
	case mode == FilterSparse:
		for r := 0; r < n; r++ {
			if sel.Bits.Test(int(sel.Pos[r])) {
				appendRow(r)
			}
		}
	case sel.Pos == nil:
		// Dense: decide block by block from the word-level popcount. Full
		// blocks hit the kernels in place with no per-row tests,
		// mostly-full blocks (>= 1/denseBlockDiv occupied) run masked,
		// emptier blocks divert their survivors to the gather list.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := i0 + ScanBlockRows
			if i1 > n {
				i1 = n
			}
			m := sel.Bits.CountRange(i0, i1)
			switch {
			case m == 0:
			case m == i1-i0:
				flush() // keep heap-worst monotone across path switches
				emitRun(i0, i1)
			case m*denseBlockDiv >= i1-i0:
				flush()
				emitMasked(i0, i1)
			default:
				for p := sel.Bits.NextSet(i0); p >= 0 && p < i1; p = sel.Bits.NextSet(p + 1) {
					appendRow(p)
				}
			}
		}
	default:
		// Dense with a position mapping (IVF buckets): triaging a block by
		// testing every row's bit would cost more than the kernel itself,
		// so blocks run masked, with one shortcut — when Pos is declared
		// sorted, a ranged popcount over the block's position span detects
		// all-excluded blocks (filters correlated with insertion order
		// leave many) and skips them without a dispatch. Bucket membership
		// is uncorrelated with the filter in expectation, so a dense
		// bitset stays dense within buckets; where it does not, the
		// worst-distance gate still bounds the testing to candidates.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := i0 + ScanBlockRows
			if i1 > n {
				i1 = n
			}
			if sel.PosSorted {
				if lo, hi := int(sel.Pos[i0]), int(sel.Pos[i1-1]); sel.Bits.CountRange(lo, hi+1) == 0 {
					continue
				}
			}
			emitMasked(i0, i1)
		}
	}
	flush()
	bufferpool.PutInt32s(gp)
	bufferpool.PutFloats(bp)
}

// passFunc returns the per-scan-row bit test for this selection, nil when
// it selects every row.
func (s Selection) passFunc() func(int) bool {
	if s.Bits == nil {
		return nil
	}
	if s.Pos == nil {
		return func(r int) bool { return s.Bits.Test(r) }
	}
	return func(r int) bool { return s.Bits.Test(int(s.Pos[r])) }
}

// scanPairwise is the per-row path of metrics without batch kernels: the
// bit test comes first, so excluded rows still skip the distance.
func scanPairwise(h *topk.Heap, metric vec.Metric, query, data []float32, dim, n int, idOf func(int) int64, sel Selection, worst float32) {
	dist := metric.Dist()
	pass := sel.passFunc()
	for i := 0; i < n; i++ {
		if pass != nil && !pass(i) {
			continue
		}
		d := dist(query, data[i*dim:(i+1)*dim])
		if d >= worst {
			continue
		}
		h.Push(idOf(i), d)
		if h.Full() {
			worst, _ = h.Worst()
		}
	}
}
