package index

import (
	"math"

	"vectordb/internal/bitset"
	"vectordb/internal/bufferpool"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// ScanBlockRows is the row-block size of the blocked scans: distances are
// computed one block at a time into a pooled buffer, then offered to the
// heap in one call. 256 rows keeps the buffer inside L1 while amortizing
// the kernel dispatch and the bound refresh over a whole block.
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
// below it in sparse (gather) mode. Calibrated on the filtered-scan grid
// (EXPERIMENTS.md): above the threshold survivors cluster into runs long
// enough that in-place kernel calls beat copying, below it the word-skipping
// sparse iterator wins because whole empty words cost one load.
const DenseSelectivity = 0.10

// denseBlockDiv sets the block-occupancy crossover of the dense scan: a
// block whose survivor count m satisfies m*denseBlockDiv >= blockLen runs
// the batch kernel over the whole block in place, masking excluded rows at
// push time; emptier blocks gather their survivors. Computing a few extra
// distances beats copying 512 bytes per survivor once roughly a quarter of
// the block survives (calibrated with BenchmarkFilteredScan; random 50% bits
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
// positions). A row survives when its bit is set. With Pos set the scan
// reads the bits at Pos and no others.
type Selection struct {
	Bits *bitset.Bitset
	Pos  []int32
	// Force pins the scan mode; FilterAuto (zero) decides by selectivity.
	// Benchmarks and conformance tests use it to compare both paths on
	// identical inputs. A position-mapped scan has one path and ignores it:
	// each block decides from the survivors among its own rows.
	Force FilterMode
}

// mode is the filter mode a scan of the first n rows runs in: Force when
// pinned, else the choice for the fraction of those rows that survive.
func (s Selection) mode(n int) FilterMode {
	if s.Force != FilterAuto || s.Bits == nil {
		return s.Force
	}
	return ChooseFilterMode(s.Bits.CountRange(0, n), n)
}

// ScanBlocked is the shared brute-force scan of every read path (flat
// indexes, unindexed segments, IVF_FLAT buckets): it streams the contiguous
// row-major block data (n rows of dim floats, ids aligned; ids == nil means
// row positions) into the caller-owned heap h, honoring the pushed-down
// selection.
//
// For L2 and IP it runs the register-blocked batch kernels one block at a
// time with a pooled distance buffer, feeding the heap's current bound
// into the L2 early-abandon kernel so top-k pruning reaches inside the
// block, and offers each block to the heap whole. A pushed bitset keeps
// the scan on the batch kernels: dense mode decides per block — full
// blocks run the kernels in place, mostly-full blocks run in place with
// excluded rows masked out as NaN before the offer (a few wasted
// distances beat copying around them), emptier blocks divert survivors to
// the gather kernels — while sparse mode gathers survivors off the
// word-skipping bit iterator. An excluded row either never reaches a
// distance computation or has its distance discarded before the heap; it
// is never returned. Only metrics without a batch kernel (cosine, binary)
// fall back to the pairwise kernels, block by block, with the bit test
// ahead of the distance.
//
// The heap may arrive non-empty: its bound carries pruning across
// segments exactly as Segment.SearchInto documents.
func ScanBlocked(h *topk.Heap, metric vec.Metric, query, data []float32, dim int, ids []int64, sel Selection) {
	n := len(data) / dim
	if ids != nil {
		n = len(ids)
	}
	if n == 0 {
		return
	}
	pass := sel.passFunc()
	bp := bufferpool.GetFloats(ScanBlockRows)
	buf := *bp
	defer bufferpool.PutFloats(bp)
	if !metric.BatchEligible() {
		scanPairwise(h, metric, query, data, dim, n, ids, pass, buf)
		return
	}

	ip := metric == vec.IP
	// score runs the batch kernel over the contiguous rows [i0, i1) in
	// place, bounded by the heap's current bound.
	score := func(i0, i1 int) []float32 {
		chunk := data[i0*dim : i1*dim]
		if ip {
			vec.NegDotBatch(query, chunk, dim, buf)
		} else {
			w, _ := h.Worst()
			vec.L2SquaredBatchBound(query, chunk, dim, w, buf)
		}
		return buf[:i1-i0]
	}
	// emitRun offers a contiguous surviving run [r0, r1) block by block.
	emitRun := func(r0, r1 int) {
		for i0 := r0; i0 < r1; i0 += ScanBlockRows {
			i1 := min(i0+ScanBlockRows, r1)
			h.Offer(score(i0, i1), ids, i0)
		}
	}
	if sel.Bits == nil {
		emitRun(0, n)
		return
	}

	// Pooled survivor list shared by both modes: sparse mode fills it from
	// the bit iterator, dense mode diverts sub-threshold runs into it so
	// fragmented regions still reach the kernels one gather dispatch per
	// block.
	gp := bufferpool.GetInt32s(ScanBlockRows)
	defer bufferpool.PutInt32s(gp)
	gather := (*gp)[:0]
	flush := func() {
		if len(gather) == 0 {
			return
		}
		if ip {
			vec.NegDotGather(query, data, dim, gather, buf)
		} else {
			w, _ := h.Worst()
			vec.L2SquaredGatherBound(query, data, dim, gather, w, buf)
		}
		h.OfferRows(buf, gather, ids)
		gather = gather[:0]
	}
	// emitMasked runs the batch kernel over the whole block [i0, i1) in
	// place and applies the bit test only to rows within the heap's
	// bound, writing NaN over those that fail so the offer drops them. On
	// a memory-bound scan the kernel costs less than a dependent-load bit
	// test (plus a likely mispredict) per row, and top-k pruning leaves
	// few enough candidates that excluded rows are almost always rejected
	// by distance alone — so when most of a block survives, a few wasted
	// distances beat both per-row testing and copying 512 bytes per
	// survivor into the gather buffer (random half-full bitsets fragment
	// into ~2-row runs, so run extraction alone cannot help).
	emitMasked := func(i0, i1 int) {
		ds := score(i0, i1)
		w, _ := h.Worst()
		for r, d := range ds {
			if d <= w && !pass(i0+r) {
				ds[r] = nan
			}
		}
		h.Offer(ds, ids, i0)
	}
	appendRow := func(r int) {
		gather = append(gather, int32(r))
		if len(gather) == ScanBlockRows {
			flush()
		}
	}

	switch {
	case sel.Pos != nil:
		// A position mapping (IVF buckets): the bits are read only at the
		// block's positions, in one branchless pass that lists and counts
		// its survivors. A block at least 1/denseBlockDiv full drops the
		// list and runs masked in place; an emptier one gathers.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := min(i0+ScanBlockRows, n)
			flush()
			gather = sel.Bits.AppendSet(gather, sel.Pos[i0:i1], int32(i0))
			if len(gather)*denseBlockDiv >= i1-i0 {
				gather = gather[:0]
				emitMasked(i0, i1)
			}
		}
	case sel.mode(n) == FilterSparse:
		// Word-skipping sparse iteration: empty words cost one load.
		for p := sel.Bits.NextSet(0); p >= 0 && p < n; p = sel.Bits.NextSet(p + 1) {
			appendRow(p)
		}
	default:
		// Dense: decide block by block from the word-level popcount. Full
		// blocks hit the kernels in place with no per-row tests,
		// mostly-full blocks (>= 1/denseBlockDiv occupied) run masked,
		// emptier blocks divert their survivors to the gather list.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := min(i0+ScanBlockRows, n)
			m := sel.Bits.CountRange(i0, i1)
			switch {
			case m == 0:
			case m == i1-i0:
				flush() // keep the heap's bound monotone across path switches
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
	}
	flush()
}

// nan is the distance a scan writes over a row it drops: no heap keeps it.
var nan = float32(math.NaN())

// passFunc returns the selection's bit test of scan rows, nil when it
// keeps every row.
func (s Selection) passFunc() func(int) bool {
	if s.Bits == nil {
		return nil
	}
	if s.Pos == nil {
		return s.Bits.Test
	}
	return func(r int) bool { return s.Bits.Test(int(s.Pos[r])) }
}

// scanPairwise is the per-row path of metrics without batch kernels: the
// bit test comes first, so excluded rows skip the distance and offer NaN.
func scanPairwise(h *topk.Heap, metric vec.Metric, query, data []float32, dim, n int, ids []int64, pass func(int) bool, buf []float32) {
	dist := metric.Dist()
	for i0 := 0; i0 < n; i0 += ScanBlockRows {
		ds := buf[:min(ScanBlockRows, n-i0)]
		for r := range ds {
			if i := i0 + r; pass == nil || pass(i) {
				ds[r] = dist(query, data[i*dim:(i+1)*dim])
			} else {
				ds[r] = nan
			}
		}
		h.Offer(ds, ids, i0)
	}
}
