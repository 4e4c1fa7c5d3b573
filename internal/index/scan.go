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
// below it in sparse (gather) mode. Measured on the filtered-scan grid
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
	var s rowScan
	s.init(h, metric == vec.IP, query, data, dim, ids, sel)
	defer s.release()
	if !metric.BatchEligible() {
		scanPairwise(h, metric, query, data, dim, n, ids, sel, s.buf)
		return
	}
	if sel.Bits == nil {
		s.emitRun(0, n)
		return
	}
	switch {
	case sel.Pos != nil:
		// A position mapping (IVF buckets): the bits are read only at the
		// block's positions, in one branchless pass that lists and counts
		// its survivors. A block at least 1/denseBlockDiv full drops the
		// list and runs masked in place; an emptier one gathers.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := min(i0+ScanBlockRows, n)
			s.flush()
			s.gather = sel.Bits.AppendSet(s.gather, sel.Pos[i0:i1], int32(i0))
			if len(s.gather)*denseBlockDiv >= i1-i0 {
				s.gather = s.gather[:0]
				s.emitMasked(i0, i1)
			}
		}
	case sel.mode(n) == FilterSparse:
		// Word-skipping sparse iteration: empty words cost one load.
		for p := sel.Bits.NextSet(0); p >= 0 && p < n; p = sel.Bits.NextSet(p + 1) {
			s.appendRow(p)
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
				s.flush() // keep the heap's bound monotone across path switches
				s.emitRun(i0, i1)
			case m*denseBlockDiv >= i1-i0:
				s.flush()
				s.emitMasked(i0, i1)
			default:
				for p := sel.Bits.NextSet(i0); p >= 0 && p < i1; p = sel.Bits.NextSet(p + 1) {
					s.appendRow(p)
				}
			}
		}
	}
	s.flush()
}

// ScanCoded is ScanBlocked for L2 rows that carry a code copy (codes, on
// the rows' grid), for one query or a batch: queries holds len(hs) queries
// of codes.Dim floats, and hs[i] collects query i's top-k (nil skips it).
// Each block's codes are scored against every query first — the code tile
// widens each code chunk once for up to four queries — and a query scores
// in float only the rows whose proven bound can still beat its heap's
// bound (vec.Codes.Threshold); the rest provably score above it, so the
// heap would reject them and every reported distance is the one
// ScanBlocked gives. Codes with a head (dim ≥ vec.HeadMinDim) are scored
// on the head first — one kernel scores its 16-row panels and lists the
// rows no query's threshold proves out — and only those rows read their
// full codes (headSums); a block where the head keeps at least
// 1/headLiveDiv of the rows sends the next headRest blocks straight to the
// full tile. A block where at least 1/denseBlockDiv of the rows survive
// runs the float kernel in place; fewer are gathered. A dense selection
// tests its bits on the survivors only. A sparse selection, or
// one mapped through positions, runs ScanBlocked per query: it gathers its
// survivors off the bit iterator without reading the rest.
func ScanCoded(hs []*topk.Heap, queries, data []float32, codes *vec.Codes, ids []int64, sel Selection) {
	dim := codes.Dim
	n := len(data) / dim
	if ids != nil {
		n = len(ids)
	}
	if n == 0 || len(hs) == 0 {
		return
	}
	if sel.Bits != nil && (sel.Pos != nil || sel.mode(n) == FilterSparse) {
		for i, h := range hs {
			if h != nil {
				ScanBlocked(h, vec.L2, queries[i*dim:(i+1)*dim], data, dim, ids, sel)
			}
		}
		return
	}
	m := len(hs)
	var one [1]rowScan
	qs := one[:]
	if m > 1 {
		qs = make([]rowScan, m)
	}
	for i := range qs {
		qs[i].init(hs[i], false, queries[i*dim:(i+1)*dim], data, dim, ids, sel)
	}
	defer func() {
		for i := range qs {
			qs[i].release()
		}
	}()
	// The queries' grid points, code distances and thresholds, laid out
	// for the kernels: a lone query's live in its scratch.
	var us []int16
	var sums, ts []int32
	if m == 1 && dim <= len(qs[0].sc.u) {
		us, sums, ts = qs[0].sc.u[:dim], qs[0].sc.sums[:], qs[0].sc.ts[:]
	} else {
		sp := bufferpool.GetInt32s(m * (ScanBlockRows + 1))
		defer bufferpool.PutInt32s(sp)
		us, sums, ts = make([]int16, m*(dim+vec.HeadDim)), *sp, (*sp)[m*ScanBlockRows:]
	}
	for i := range qs {
		qs[i].slack = codes.Prepare(qs[i].query, us[i*dim:(i+1)*dim])
	}
	// The heads' grid points: a lone query's is its grid point's prefix.
	uh := us[:min(dim, vec.HeadDim)]
	if m > 1 && codes.Head != nil {
		uh = us[m*dim:]
		for i := range qs {
			copy(uh[i*vec.HeadDim:(i+1)*vec.HeadDim], us[i*dim:])
		}
	}
	us = us[:m*dim]
	rest := 0 // blocks left on the full tile before the head is tried again
	for i0 := 0; i0 < n; i0 += ScanBlockRows {
		i1 := min(i0+ScanBlockRows, n)
		rows := i1 - i0
		masked := false
		if sel.Bits != nil {
			k := sel.Bits.CountRange(i0, i1)
			if k == 0 {
				continue
			}
			masked = k < rows
		}
		coded := false
		for i := range qs {
			q := &qs[i]
			q.t, q.ok = -1, false // -1: no S is within it
			if q.h != nil {
				w, _ := q.h.Worst()
				if t, ok := codes.Threshold(q.slack, w); ok {
					q.t, q.ok, coded = t, true, true
				}
			}
			ts[i] = q.t
		}
		// live lists the rows sums scores, stride apart per query.
		live, stride := blockRows[:rows], rows
		switch {
		case !coded:
		case codes.Head != nil && rest == 0:
			var pruned bool
			if live, stride, pruned = headSums(qs[0].sc, codes, uh, us, ts, i0, i1, sums); !pruned {
				rest = headRest
			}
		default:
			rest = max(rest-1, 0)
			vec.CodeL2Tile(us, codes.Rows(i0, i1), dim, sums[:m*rows])
		}
		for i := range qs {
			q := &qs[i]
			switch {
			case q.h == nil:
			case q.ok:
				q.codedBlock(i0, i1, live, sums[i*stride:i*stride+len(live)], masked)
			default:
				q.flush()
				q.emitBlock(i0, i1, masked)
			}
		}
	}
	for i := range qs {
		if qs[i].h != nil {
			qs[i].flush()
		}
	}
}

// A head pass that leaves at least 1/headLiveDiv of its block's rows alive
// saves too little to pay for itself: the next headRest blocks run the full
// code tile, and the head is tried again after them. Where the head prunes
// nothing, it costs a quarter-width pass once in headRest+1 blocks.
const (
	headLiveDiv = 4
	headRest    = 15
)

// blockRows lists a whole block's rows, for a block the code tile scored
// in full.
var blockRows = func() (r [ScanBlockRows]int32) {
	for i := range r {
		r[i] = int32(i)
	}
	return r
}()

// headSums lists the rows of the block [i0, i1) whose head S is within
// some query's threshold (vec.Codes.HeadList: one kernel scores the
// head's panels and lists them) and reads the full codes of those rows
// only: a head S never exceeds the row's S, so every other row is proven
// out for every query, just as its S would prove it. It returns the
// survivors (offsets from i0) and writes their S into sums, query-major,
// stride apart; the survivors' codes are gathered padded to a multiple of
// four rows, the assembly tiles' row group. When at least 1/headLiveDiv
// of the rows survive, it runs the full tile over the block instead and
// reports false, with every row listed.
func headSums(sc *scanScratch, codes *vec.Codes, uh, us []int16, ts []int32, i0, i1 int, sums []int32) (live []int32, stride int, pruned bool) {
	m, dim, rows := len(ts), codes.Dim, i1-i0
	n := codes.HeadList(uh, ts, i0, i1, sc.live[:])
	live = sc.live[:n]
	if n*headLiveDiv >= rows {
		vec.CodeL2Tile(us, codes.Rows(i0, i1), dim, sums[:m*rows])
		return blockRows[:rows], rows, false
	}
	if n == 0 {
		return nil, 0, true
	}
	n4 := (n + 3) &^ 3
	if need := n4 * dim; cap(sc.codes) < need {
		sc.codes = make([]uint8, max(need, 2*cap(sc.codes)))
	}
	rowCodes := sc.codes[:n4*dim]
	for j, r := range live[:n] {
		copy(rowCodes[j*dim:(j+1)*dim], codes.Rows(i0+int(r), i0+int(r)+1))
	}
	vec.CodeL2Tile(us, rowCodes, dim, sums[:m*n4])
	return live[:n], n4, true
}

// rowScan is one query's side of a blocked scan: the rows, the heap they
// are offered to, a distance buffer, and the list of rows waiting for one
// gather dispatch, both in its pooled scratch. Every blocked path —
// ScanBlocked's runs, masked blocks and gathers, and ScanCoded's
// survivors — offers through these methods.
type rowScan struct {
	h      *topk.Heap
	ip     bool
	query  []float32
	data   []float32
	dim    int
	ids    []int64
	sel    Selection // its bits are tested only where a block is masked
	buf    []float32 // one block's distances
	gather []int32   // rows waiting for a gather dispatch
	sc     *scanScratch

	// ScanCoded's per-query state: the slack its thresholds add, and the
	// current block's threshold when ok (-1 when not).
	slack float64
	t     int32
	ok    bool
}

// scanScratch is a rowScan's scratch, one pool round trip per scan: the
// block's distances, the gather list (twice a block: a coded block's
// survivors are listed before it decides to gather them) and the gathered
// rows, a lone coded query's code distances, threshold and, up to 1,024
// dims, grid point, and a coded scan's head survivors and their gathered
// codes.
type scanScratch struct {
	buf    [ScanBlockRows]float32
	gather [2 * ScanBlockRows]int32
	sums   [ScanBlockRows]int32
	ts     [1]int32
	u      [1024]int16
	live   [ScanBlockRows]int32
	rows   []float32 // grown to the largest gather seen
	codes  []uint8   // grown to the most head survivors' codes seen
}

var scratches = bufferpool.NewFree(func() *scanScratch { return new(scanScratch) })

func (s *rowScan) init(h *topk.Heap, ip bool, query, data []float32, dim int, ids []int64, sel Selection) {
	sc := scratches.Get()
	*s = rowScan{h: h, ip: ip, query: query, data: data, dim: dim, ids: ids, sel: sel,
		buf: sc.buf[:], gather: sc.gather[:0], sc: sc}
}

func (s *rowScan) release() { scratches.Put(s.sc) }

// score runs the batch kernel over the contiguous rows [i0, i1) in place,
// bounded by the heap's current bound.
func (s *rowScan) score(i0, i1 int) []float32 {
	chunk := s.data[i0*s.dim : i1*s.dim]
	if s.ip {
		vec.NegDotBatch(s.query, chunk, s.dim, s.buf)
	} else {
		w, _ := s.h.Worst()
		vec.L2SquaredBatchBound(s.query, chunk, s.dim, w, s.buf)
	}
	return s.buf[:i1-i0]
}

// emitRun offers a contiguous surviving run [r0, r1) block by block.
func (s *rowScan) emitRun(r0, r1 int) {
	for i0 := r0; i0 < r1; i0 += ScanBlockRows {
		i1 := min(i0+ScanBlockRows, r1)
		s.h.Offer(s.score(i0, i1), s.ids, i0)
	}
}

// emitMasked runs the batch kernel over the whole block [i0, i1) in place
// and applies the bit test only to rows within the heap's bound, writing
// NaN over those that fail so the offer drops them. On a memory-bound scan
// the kernel costs less than a dependent-load bit test (plus a likely
// mispredict) per row, and top-k pruning leaves few enough candidates that
// excluded rows are almost always rejected by distance alone — so when
// most of a block survives, a few wasted distances beat both per-row
// testing and copying 512 bytes per survivor into the gather buffer
// (random half-full bitsets fragment into ~2-row runs, so run extraction
// alone cannot help).
func (s *rowScan) emitMasked(i0, i1 int) {
	ds := s.score(i0, i1)
	w, _ := s.h.Worst()
	for r, d := range ds {
		if d <= w && !s.sel.keeps(i0+r) {
			ds[r] = nan
		}
	}
	s.h.Offer(ds, s.ids, i0)
}

// emitBlock scores the block [i0, i1) in place, masked when the selection
// excludes some of its rows.
func (s *rowScan) emitBlock(i0, i1 int, masked bool) {
	if masked {
		s.emitMasked(i0, i1)
	} else {
		s.emitRun(i0, i1)
	}
}

// flush scores the gathered rows in one gather dispatch and offers them.
func (s *rowScan) flush() {
	if len(s.gather) == 0 {
		return
	}
	if need := len(s.gather) * s.dim; cap(s.sc.rows) < need {
		s.sc.rows = make([]float32, max(need, 2*cap(s.sc.rows)))
	}
	if s.ip {
		vec.NegDotGather(s.query, s.data, s.dim, s.gather, s.buf, s.sc.rows)
	} else {
		w, _ := s.h.Worst()
		vec.L2SquaredGatherBound(s.query, s.data, s.dim, s.gather, w, s.buf, s.sc.rows)
	}
	s.h.OfferRows(s.buf, s.gather, s.ids)
	s.gather = s.gather[:0]
}

// appendRow queues row r for the next gather dispatch.
func (s *rowScan) appendRow(r int) {
	s.gather = append(s.gather, int32(r))
	if len(s.gather) == ScanBlockRows {
		s.flush()
	}
}

// codedBlock takes the block [i0, i1) whose listed rows (live, offsets
// from i0) have the code distances sums; every row not listed is proven
// out. A row with S above the query's threshold is dropped unscored, and
// so, when masked, is one the selection excludes (tested on the code
// survivors only). The survivors are gathered, or, when at least
// 1/denseBlockDiv of the block survives, the block is scored in place.
// The gather list stays under ScanBlockRows between blocks, so a block's
// survivors always fit its 2·ScanBlockRows capacity.
func (s *rowScan) codedBlock(i0, i1 int, live, sums []int32, masked bool) {
	mark, base := len(s.gather), int32(i0)
	live = live[:len(sums)]
	if masked {
		for j, v := range sums {
			if r := base + live[j]; v <= s.t && s.sel.keeps(int(r)) {
				s.gather = append(s.gather, r)
			}
		}
	} else {
		// Branch-free: every row is written, and the list grows past the
		// survivors only.
		g, n := s.gather[:mark+len(sums)], mark
		for j, v := range sums {
			g[n] = base + live[j]
			n += b2i(v <= s.t)
		}
		s.gather = g[:n]
	}
	switch {
	case (len(s.gather)-mark)*denseBlockDiv >= i1-i0:
		s.gather = s.gather[:mark]
		s.flush()
		s.emitBlock(i0, i1, masked)
	case len(s.gather) > ScanBlockRows-ScanBlockRows/denseBlockDiv:
		s.flush()
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nan is the distance a scan writes over a row it drops: no heap keeps it.
var nan = float32(math.NaN())

// keeps reports whether the selection keeps scan row r.
func (s *Selection) keeps(r int) bool {
	switch {
	case s.Bits == nil:
		return true
	case s.Pos == nil:
		return s.Bits.Test(r)
	}
	return s.Bits.Test(int(s.Pos[r]))
}

// scanPairwise is the per-row path of metrics without batch kernels: the
// bit test comes first, so excluded rows skip the distance and offer NaN.
func scanPairwise(h *topk.Heap, metric vec.Metric, query, data []float32, dim, n int, ids []int64, sel Selection, buf []float32) {
	dist := metric.Dist()
	for i0 := 0; i0 < n; i0 += ScanBlockRows {
		ds := buf[:min(ScanBlockRows, n-i0)]
		for r := range ds {
			if i := i0 + r; sel.keeps(i) {
				ds[r] = dist(query, data[i*dim:(i+1)*dim])
			} else {
				ds[r] = nan
			}
		}
		h.Offer(ds, ids, i0)
	}
}
