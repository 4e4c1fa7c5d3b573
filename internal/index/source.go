package index

import (
	"math"

	"vectordb/internal/bufferpool"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// BlockSource abstracts where a blocked scan's vectors live: a live RAM
// slice (growing segments), an mmap'd extent, or a cache of 256-row
// blocks faulted in from local disk or objstore (sealed segments). The
// scan driver only ever asks for one aligned block at a time, which is
// what makes bounded-memory out-of-core scans possible.
type BlockSource interface {
	Rows() int
	Dim() int
	// Block returns rows [i0, i1) as a row-major float view. i0 is always
	// a multiple of ScanBlockRows and i1-i0 <= ScanBlockRows. The view is
	// valid only until the next Block call or Release — callers must not
	// retain it.
	Block(i0, i1 int) []float32
	// Release frees any pinned block or pooled scratch. Callers must
	// release every source on all paths.
	Release()
}

// ContiguousSource is implemented by sources whose whole data is resident
// in one slice; ScanBlockedSource detects it and delegates to the plain
// in-RAM ScanBlocked with zero per-block overhead.
type ContiguousSource interface {
	Contiguous() ([]float32, bool)
}

// SliceSource adapts a flat in-RAM slice to BlockSource.
type SliceSource struct {
	Data []float32
	D    int
}

func (s SliceSource) Rows() int                     { return len(s.Data) / s.D }
func (s SliceSource) Dim() int                      { return s.D }
func (s SliceSource) Block(i0, i1 int) []float32    { return s.Data[i0*s.D : i1*s.D] }
func (s SliceSource) Release()                      {}
func (s SliceSource) Contiguous() ([]float32, bool) { return s.Data, true }

// RangeSource exposes rows [Start, Start+N) of a parent source as a
// source of its own. Its blocks are aligned in *local* coordinates while
// the parent's are aligned in parent coordinates, so a local block can
// straddle two parent blocks; the straddling case stitches the halves
// into pooled scratch (the parent view is invalidated by the second
// Block call, so the first half must be copied out). IVF bucket scans
// use this to run build-order bucket ranges against one shared
// build-order extent.
type RangeSource struct {
	Src     BlockSource
	Start   int
	N       int
	scratch *[]float32
}

func (r *RangeSource) Rows() int { return r.N }
func (r *RangeSource) Dim() int  { return r.Src.Dim() }

func (r *RangeSource) Block(i0, i1 int) []float32 {
	dim := r.Src.Dim()
	a0, a1 := r.Start+i0, r.Start+i1
	b0 := (a0 / ScanBlockRows) * ScanBlockRows
	b1 := b0 + ScanBlockRows
	if pr := r.Src.Rows(); b1 > pr {
		b1 = pr
	}
	if a1 <= b1 {
		v := r.Src.Block(b0, b1)
		return v[(a0-b0)*dim : (a1-b0)*dim]
	}
	// Straddles two parent blocks.
	if r.scratch == nil {
		sp := bufferpool.GetFloats(ScanBlockRows * dim)
		r.scratch = sp // escapes to the source; Release returns it
	}
	out := (*r.scratch)[:(a1-a0)*dim]
	v := r.Src.Block(b0, b1)
	k := copy(out, v[(a0-b0)*dim:(b1-b0)*dim])
	b2 := b1 + ScanBlockRows
	if pr := r.Src.Rows(); b2 > pr {
		b2 = pr
	}
	v = r.Src.Block(b1, b2)
	copy(out[k:], v[:(a1-b1)*dim])
	return out
}

func (r *RangeSource) Release() {
	if r.scratch != nil {
		bufferpool.PutFloats(r.scratch)
		r.scratch = nil
	}
	r.Src.Release()
}

// ByteBlockSource is the code-shaped sibling of BlockSource: row-major
// uint8 rows (SQ8 codes) served one aligned block at a time. Used by the
// externalized IVF_SQ8 bucket scans.
type ByteBlockSource interface {
	Rows() int
	RowBytes() int
	Block(i0, i1 int) []byte
	Release()
}

// ByteRangeSource exposes rows [Start, Start+N) of a parent
// ByteBlockSource, stitching straddling blocks through pooled scratch
// exactly like RangeSource.
type ByteRangeSource struct {
	Src     ByteBlockSource
	Start   int
	N       int
	scratch *[]byte
}

func (r *ByteRangeSource) Rows() int     { return r.N }
func (r *ByteRangeSource) RowBytes() int { return r.Src.RowBytes() }

func (r *ByteRangeSource) Block(i0, i1 int) []byte {
	rb := r.Src.RowBytes()
	a0, a1 := r.Start+i0, r.Start+i1
	b0 := (a0 / ScanBlockRows) * ScanBlockRows
	b1 := b0 + ScanBlockRows
	if pr := r.Src.Rows(); b1 > pr {
		b1 = pr
	}
	if a1 <= b1 {
		v := r.Src.Block(b0, b1)
		return v[(a0-b0)*rb : (a1-b0)*rb]
	}
	if r.scratch == nil {
		sp := bufferpool.GetBytes(ScanBlockRows * rb)
		r.scratch = sp // escapes to the source; Release returns it
	}
	out := (*r.scratch)[:(a1-a0)*rb]
	v := r.Src.Block(b0, b1)
	k := copy(out, v[(a0-b0)*rb:(b1-b0)*rb])
	b2 := b1 + ScanBlockRows
	if pr := r.Src.Rows(); b2 > pr {
		b2 = pr
	}
	v = r.Src.Block(b1, b2)
	copy(out[k:], v[:(a1-b1)*rb])
	return out
}

func (r *ByteRangeSource) Release() {
	if r.scratch != nil {
		bufferpool.PutBytes(r.scratch)
		r.scratch = nil
	}
	r.Src.Release()
}

// ScanBlockedSource is ScanBlocked over a BlockSource: the same triage,
// kernels, worst-distance gating and selection semantics, but the data
// arrives one aligned 256-row block at a time, so it works when the
// vectors live out of core. It produces the identical result heap to
// ScanBlocked on the same logical data — the only structural difference
// is that gather lists flush per block instead of accumulating across
// blocks (views don't outlive the block), which by the one-sided
// early-abandon contract cannot change which rows survive.
//
// Blocks with no surviving rows are skipped without touching the source
// at all: a filtered out-of-core scan faults in only the blocks it needs.
//
// The caller owns src and must Release it afterwards (ScanBlockedSource
// does not).
func ScanBlockedSource(h *topk.Heap, metric vec.Metric, query []float32, src BlockSource, ids []int64, sel Selection) {
	if c, ok := src.(ContiguousSource); ok {
		if data, ok2 := c.Contiguous(); ok2 {
			ScanBlocked(h, metric, query, data, src.Dim(), ids, sel)
			return
		}
	}
	n := src.Rows()
	dim := src.Dim()
	if ids != nil && len(ids) < n {
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
	blockEnd := func(i0 int) int {
		i1 := i0 + ScanBlockRows
		if i1 > n {
			i1 = n
		}
		return i1
	}

	if !metric.BatchEligible() {
		// Pairwise fallback with the bit test first; the block is fetched
		// lazily so fully excluded blocks never touch the source.
		dist := metric.Dist()
		pass := sel.passFunc()
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := blockEnd(i0)
			var blk []float32
			for r := i0; r < i1; r++ {
				if pass != nil && !pass(r) {
					continue
				}
				if blk == nil {
					blk = src.Block(i0, i1)
				}
				d := dist(query, blk[(r-i0)*dim:(r-i0+1)*dim])
				if d >= worst {
					continue
				}
				h.Push(idOf(r), d)
				if h.Full() {
					worst, _ = h.Worst()
				}
			}
		}
		return
	}

	bp := bufferpool.GetFloats(ScanBlockRows)
	buf := *bp
	ip := metric == vec.IP
	if sel.Bits == nil {
		// Unfiltered blocked scan.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := blockEnd(i0)
			blk := src.Block(i0, i1)
			if ip {
				vec.NegDotBatch(query, blk, dim, buf)
			} else {
				vec.L2SquaredBatchBound(query, blk, dim, worst, buf)
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

	// Survivor list in block-local row indices; flushed before the view
	// is invalidated by the next block.
	gp := bufferpool.GetInt32s(ScanBlockRows)
	gather := (*gp)[:0]
	flush := func(blk []float32, base int) {
		if len(gather) == 0 {
			return
		}
		if ip {
			vec.NegDotGather(query, blk, dim, gather, buf)
		} else {
			vec.L2SquaredGatherBound(query, blk, dim, gather, worst, buf)
		}
		for i, r := range gather {
			d := buf[i]
			if d >= worst {
				continue
			}
			h.Push(idOf(base+int(r)), d)
			if h.Full() {
				worst, _ = h.Worst()
			}
		}
		gather = gather[:0]
	}
	emitFull := func(blk []float32, i0, i1 int) {
		if ip {
			vec.NegDotBatch(query, blk, dim, buf)
		} else {
			vec.L2SquaredBatchBound(query, blk, dim, worst, buf)
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
	pass := sel.passFunc()
	emitMasked := func(blk []float32, i0, i1 int) {
		if ip {
			vec.NegDotBatch(query, blk, dim, buf)
		} else {
			vec.L2SquaredBatchBound(query, blk, dim, worst, buf)
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

	switch {
	case mode == FilterSparse && sel.Pos == nil:
		// Word-skipping sparse iteration, driven block to block by
		// NextSet: blocks with no survivors are never fetched.
		p := sel.Bits.NextSet(0)
		for p >= 0 && p < n {
			i0 := (p / ScanBlockRows) * ScanBlockRows
			i1 := blockEnd(i0)
			for ; p >= 0 && p < i1; p = sel.Bits.NextSet(p + 1) {
				gather = append(gather, int32(p-i0))
			}
			if len(gather) > 0 {
				flush(src.Block(i0, i1), i0)
			}
		}
	case mode == FilterSparse:
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := blockEnd(i0)
			for r := i0; r < i1; r++ {
				if sel.Bits.Test(int(sel.Pos[r])) {
					gather = append(gather, int32(r-i0))
				}
			}
			if len(gather) > 0 {
				flush(src.Block(i0, i1), i0)
			}
		}
	case sel.Pos == nil:
		// Dense triage per block, as in ScanBlocked; empty blocks are
		// skipped without a fetch.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := blockEnd(i0)
			m := sel.Bits.CountRange(i0, i1)
			switch {
			case m == 0:
			case m == i1-i0:
				emitFull(src.Block(i0, i1), i0, i1)
			case m*denseBlockDiv >= i1-i0:
				emitMasked(src.Block(i0, i1), i0, i1)
			default:
				for p := sel.Bits.NextSet(i0); p >= 0 && p < i1; p = sel.Bits.NextSet(p + 1) {
					gather = append(gather, int32(p-i0))
				}
				if len(gather) > 0 {
					flush(src.Block(i0, i1), i0)
				}
			}
		}
	default:
		// Dense with a position mapping (IVF buckets): masked blocks,
		// with the PosSorted span skip avoiding both the kernel and the
		// fetch for all-excluded blocks.
		for i0 := 0; i0 < n; i0 += ScanBlockRows {
			i1 := blockEnd(i0)
			if sel.PosSorted {
				if lo, hi := int(sel.Pos[i0]), int(sel.Pos[i1-1]); sel.Bits.CountRange(lo, hi+1) == 0 {
					continue
				}
			}
			emitMasked(src.Block(i0, i1), i0, i1)
		}
	}
	bufferpool.PutInt32s(gp)
	bufferpool.PutFloats(bp)
}
