package core

import (
	"context"
	"fmt"

	"vectordb/internal/bitset"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Vector fusion (Sec. 4.2): for multi-vector entities, the µ vectors of
// each entity are stored as one concatenated vector; a multi-vector query
// with a decomposable similarity function becomes a single vector query by
// applying the aggregation to the query's sub-vectors. This file implements
// the fused search: a scan that aggregates the per-field distances row by
// row, which equals scanning the concatenated vectors.

// FusedDim is the concatenated dimensionality of all vector fields.
func (c *Collection) FusedDim() int {
	d := 0
	for _, f := range c.schema.VectorFields {
		d += f.Dim
	}
	return d
}

// fusedMetric validates fusion applicability: every field must share one
// decomposable metric (inner product always; L2 with equal weights).
func (c *Collection) fusedMetric() (vec.Metric, error) {
	if len(c.schema.VectorFields) < 2 {
		return 0, fmt.Errorf("core: vector fusion needs ≥ 2 vector fields")
	}
	m := c.schema.VectorFields[0].Metric
	for _, f := range c.schema.VectorFields[1:] {
		if f.Metric != m {
			return 0, fmt.Errorf("core: vector fusion needs one metric across fields, got %v and %v", m, f.Metric)
		}
	}
	if !m.Decomposable() {
		return 0, fmt.Errorf("core: metric %v is not decomposable; use iterative merging", m)
	}
	return m, nil
}

// fusable reports whether vector fusion applies to the schema and weights:
// one decomposable metric across fields, and for L2 only unit weights.
func (c *Collection) fusable(weights []float32) error {
	m, err := c.fusedMetric()
	if err != nil {
		return err
	}
	for _, w := range weights {
		if m == vec.L2 && w != 1 {
			return fmt.Errorf("core: weighted L2 is not decomposable; use iterative merging")
		}
	}
	return nil
}

// fuseQuery folds validated, fusable per-field queries and weights into the
// single aggregated query of the fusion algorithm: the weights scale the
// query sub-vectors ([w0·q0, w1·q1, ...]).
func (c *Collection) fuseQuery(queries [][]float32, weights []float32) []float32 {
	out := make([]float32, 0, c.FusedDim())
	for i, q := range queries {
		w := float32(1)
		if weights != nil {
			w = weights[i]
		}
		for _, x := range q {
			out = append(out, w*x)
		}
	}
	return out
}

// searchFused sweeps the pinned snapshot with the aggregated query fq:
// each segment's body is the row-wise aggregated scan (fusedScan). A
// segment whose bytes cannot be read fails the query.
func (c *Collection) searchFused(ctx context.Context, sn *Snapshot, fq []float32, opts SearchOptions) ([]topk.Result, error) {
	var out [1][]topk.Result
	err := c.sweep(ctx, sn, opts.Trace, scanField, opts.Params(), out[:], func(seg *Segment, p index.SearchParams, hs []*topk.Heap) error {
		return c.fusedScan(hs[0], seg, p.Bits, fq)
	})
	return out[0], err
}

// fusedScan pushes into h every row of a segment that visible
// keeps (nil hides nothing), at the per-field distances to fq's sub-vectors
// aggregated row by row (identical to scanning the concatenation). A
// tiered segment pins its mapping per field for the scan.
func (c *Collection) fusedScan(h *topk.Heap, seg *Segment, visible *bitset.Bitset, fq []float32) error {
	fields := c.schema.VectorFields
	rows := make([]func(int) []float32, len(fields))
	for f := range rows {
		rowAt, rel, err := seg.vectorRows(f)
		if err != nil {
			return fmt.Errorf("core: segment %d: %w", seg.ID, err)
		}
		defer rel()
		rows[f] = rowAt
	}
	dist := fields[0].Metric.Dist()
	for r := 0; r < seg.Rows(); r++ {
		if visible != nil && !visible.Test(r) {
			continue
		}
		var d float32
		off := 0
		for f, vf := range fields {
			d += dist(fq[off:off+vf.Dim], rows[f](r))
			off += vf.Dim
		}
		h.Push(seg.IDs[r], d)
	}
	return nil
}
