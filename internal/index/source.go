package index

import (
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

// ScanBlockedSource is ScanBlocked over a BlockSource: the data arrives one
// aligned 256-row block at a time, so it works when the vectors live out of
// core. It picks the filter mode once for the whole source and runs every
// fetched block through ScanBlocked's own body, so it produces the
// identical result heap to ScanBlocked on the same logical data — the only
// structural difference is that gather lists flush per block instead of
// accumulating across blocks (views don't outlive the block), which by the
// one-sided early-abandon contract cannot change which rows survive.
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
	if ids != nil && len(ids) < n {
		n = len(ids)
	}
	sel.Force = sel.mode(n)
	pos := sel.Pos
	for i0 := 0; i0 < n; i0 += ScanBlockRows {
		i1 := min(i0+ScanBlockRows, n)
		if !sel.anyIn(i0, i1) {
			continue
		}
		bsel, bids := sel, ids
		if pos != nil {
			bsel.Pos = pos[i0:i1]
		}
		if ids != nil {
			bids = ids[i0:i1]
		}
		scanRows(h, metric, query, src.Block(i0, i1), src.Dim(), bids, bsel, i0)
	}
}
