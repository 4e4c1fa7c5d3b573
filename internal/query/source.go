// Package query implements the advanced query processing of Sec. 4:
// attribute filtering (strategies A through E, including the paper's new
// partition-based strategy E) and multi-vector query processing (naive
// per-field search, Fagin's NRA, iterative merging, and vector fusion
// support). The algorithms are written against small interfaces so they run
// identically over the LSM collection engine, over partitions, and over the
// in-memory tables the experiment harness uses.
package query

import (
	"context"

	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// RangeCond is the attribute constraint Cα: lo ≤ attr ≤ hi (Sec. 4.1).
type RangeCond struct {
	Attr   int
	Lo, Hi int64
}

// VecCond is the vector constraint Cν: top-K most similar to Query on Field.
type VecCond struct {
	Field  int
	Query  []float32
	K      int
	Nprobe int // passed through to the index
	// Trace, when set, receives the strategy chosen (filter_strategy
	// attribute) and its phases' stages. Nil records nothing (a nil
	// record is a no-op).
	Trace *obs.QueryRecord
	// Ctx, when set, cancels the strategy: scans and per-round loops
	// check it periodically and stop early, returning whatever partial
	// results exist. Callers that care inspect Ctx.Err() afterwards and
	// discard the partials. Nil means never cancelled.
	Ctx context.Context
}

// cancelled reports whether the condition's context has ended.
func (vc *VecCond) cancelled() bool {
	return vc.Ctx != nil && vc.Ctx.Err() != nil
}

// Source is what the filtering strategies need from the data under search.
type Source interface {
	// TotalRows is the number of searchable entities.
	TotalRows() int
	// CountRange counts entities satisfying the attribute constraint
	// (selectivity estimation for the cost-based strategy D).
	CountRange(attr int, lo, hi int64) int
	// RangeRows returns the IDs satisfying the attribute constraint,
	// resolved through the sorted attribute column (strategy A).
	RangeRows(attr int, lo, hi int64) []int64
	// AttrValue returns an entity's attribute (strategy C verification).
	AttrValue(attr int, id int64) (int64, bool)
	// VectorQuery is normal top-k vector query processing.
	VectorQuery(field int, q []float32, k, nprobe int) []topk.Result
	// CompileRange compiles lo ≤ attr ≤ hi to a pushed filter (strategy
	// B's bitmap: bitsets over build positions); ok=false means the
	// attribute is unknown.
	CompileRange(attr int, lo, hi int64) (pf *PushedFilter, ok bool)
	// VectorQueryPushed is VectorQuery with the compiled filter tested
	// beneath the index scan.
	VectorQueryPushed(field int, q []float32, k, nprobe int, pf *PushedFilter) []topk.Result
	// DistanceByID computes the exact query↔entity distance (strategy A's
	// full scan over the attribute-qualified candidates).
	DistanceByID(field int, q []float32, id int64) (float32, bool)
}

// PushedFilter is a compiled attribute constraint: the source resolves the
// predicate to dense bitsets over build positions, so vector query
// processing tests membership with word loads under the batch kernels
// instead of a map probe per encountered ID. Its handle is the source's
// own (a Table keeps the bitset; a collection view keeps the predicate and
// compiles it per segment at the positions each search reads). Release
// returns pooled storage; the filter must not be used afterwards.
type PushedFilter struct {
	// Matched/Total give the constraint's selectivity (tombstones already
	// cleared from Matched).
	Matched, Total int
	// Mode records how the source will apply the filter — "dense" (run
	// extraction through the batch kernels), "sparse" (gather path) or
	// "graph" (filtered traversal) — for the filter_mode trace annotation.
	Mode    string
	handle  any
	release func()
}

// NewPushedFilter wraps a source-owned compiled filter. handle is opaque to
// the strategies and flows back through VectorQueryPushed; release (may be
// nil) returns pooled storage.
func NewPushedFilter(matched, total int, mode string, handle any, release func()) *PushedFilter {
	return &PushedFilter{Matched: matched, Total: total, Mode: mode, handle: handle, release: release}
}

// Handle returns the source-owned payload passed to NewPushedFilter.
func (pf *PushedFilter) Handle() any { return pf.handle }

// Selectivity is Matched/Total (0 when the source is empty).
func (pf *PushedFilter) Selectivity() float64 {
	if pf.Total == 0 {
		return 0
	}
	return float64(pf.Matched) / float64(pf.Total)
}

// Release returns pooled bitsets to their pool.
func (pf *PushedFilter) Release() {
	if pf.release != nil {
		pf.release()
		pf.release = nil
	}
}

// MultiSource is what multi-vector query processing needs: per-field vector
// queries plus exact per-field distances for candidate scoring.
type MultiSource interface {
	Fields() int
	FieldQuery(field int, q []float32, k int) []topk.Result
	FieldDistance(field int, q []float32, id int64) (float32, bool)
}
