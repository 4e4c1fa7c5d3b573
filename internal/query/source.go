// Package query implements the advanced query processing of Sec. 4 that
// the paper's figures compare: attribute filtering (strategies A through E,
// including the paper's new partition-based strategy E) and multi-vector
// query processing (the standard NRA baseline, and iterative merging over
// topk.IterativeMerging). The algorithms are written against small
// interfaces so they run identically over a collection's SourceView, over
// partitions, and over the in-memory tables the experiment harness uses.
// The collection engine serves strategies A and B and iterative merging
// itself; the daemon does not link this package.
package query

import (
	"vectordb/internal/colstore"
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

// PushedFilter is the compiled attribute constraint of strategy B, which
// the collection engine also builds (colstore.PushedFilter).
type PushedFilter = colstore.PushedFilter

// MultiSource is what multi-vector query processing needs: per-field vector
// queries plus exact per-field distances for candidate scoring.
type MultiSource interface {
	Fields() int
	FieldQuery(field int, q []float32, k int) []topk.Result
	FieldDistance(field int, q []float32, id int64) (float32, bool)
}
