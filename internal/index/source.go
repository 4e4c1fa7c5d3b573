package index

import (
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// BlockSource abstracts where a blocked scan's vectors live: a live RAM
// slice (growing segments), or a cache of blocks of at most 256 rows
// copied out of an mmap'd extent (sealed segments and externalized IVF
// buckets). The scan driver only ever asks for one aligned block at a
// time, which is what makes bounded-memory out-of-core scans possible.
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

// ByteBlockSource is the code-shaped sibling of BlockSource: row-major
// uint8 rows (SQ8 codes) served one aligned block at a time, under the
// same contract. Used by the IVF_SQ8 bucket scans.
type ByteBlockSource interface {
	Rows() int
	RowBytes() int
	Block(i0, i1 int) []byte
	Release()
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
