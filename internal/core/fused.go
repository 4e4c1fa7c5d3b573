package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Vector fusion (Sec. 4.2): for multi-vector entities, the µ vectors of
// each entity are stored as one concatenated vector; a multi-vector query
// with a decomposable similarity function becomes a single vector query by
// applying the aggregation to the query's sub-vectors. This file implements
// the fused storage view, the fused index, and the fused search.

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

// BuildFusedIndex builds, on every current segment, an index over the
// concatenated vector fields.
func (c *Collection) BuildFusedIndex(indexType string, params map[string]string) error {
	m, err := c.fusedMetric()
	if err != nil {
		return err
	}
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	dim := c.FusedDim()
	for _, seg := range sn.Segments {
		b, err := index.NewBuilder(indexType, m, dim, params)
		if err != nil {
			return err
		}
		idx, err := b.Build(seg.FusedData(), seg.IDs)
		if err != nil {
			return fmt.Errorf("core: fused index on segment %d: %w", seg.ID, err)
		}
		seg.SetFusedIndex(idx)
	}
	return nil
}

// SearchFused runs the vector-fusion multi-vector query: one top-k search
// of the aggregated query against the concatenated vectors.
func (c *Collection) SearchFused(queries [][]float32, weights []float32, opts SearchOptions) ([]topk.Result, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return c.SearchFusedCtx(context.Background(), queries, weights, opts)
}

// SearchFusedCtx is SearchFused with admission control and cancellation.
func (c *Collection) SearchFusedCtx(ctx context.Context, queries [][]float32, weights []float32, opts SearchOptions) ([]topk.Result, error) {
	res, err := c.execute(ctx, &Query{kind: kindFused, vecs: queries, weights: weights, opts: opts})
	return res.hits, err
}

// searchFused is the fused sweep: segments of the pinned snapshot are
// claimed dynamically by shared-pool tasks, exactly like searchSnapshot,
// each searched with the aggregated query fq.
func (c *Collection) searchFused(ctx context.Context, sn *Snapshot, fq []float32, opts SearchOptions) ([]topk.Result, error) {
	m := c.schema.VectorFields[0].Metric
	p := opts.Params()
	segs := sn.Segments
	if len(segs) == 0 {
		return nil, ctx.Err()
	}
	results := make([][]topk.Result, len(segs))
	var cursor atomic.Int64
	segSpan := opts.Trace.StartSpan("segments")
	err := c.pool.Map(ctx, poolTasks(c.pool, len(segs)), func(int) {
		for ctx.Err() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= len(segs) {
				return
			}
			seg := segs[i]
			p := p
			p.Bits = sn.visible[i]
			if idx := seg.FusedIndex(); idx != nil {
				results[i] = idx.Search(fq, p)
				continue
			}
			// Unindexed fused scan: aggregate per-field distances row by
			// row (identical to scanning the concatenation). Tiered
			// segments pin their mapping per field for the sweep.
			rows := make([]func(int) []float32, len(c.schema.VectorFields))
			rels := make([]func(), 0, len(rows))
			readable := true
			for f := range rows {
				rowAt, rel, err := seg.vectorRows(f)
				if err != nil {
					readable = false
					break
				}
				rows[f] = rowAt
				rels = append(rels, rel)
			}
			if !readable {
				for _, rel := range rels {
					rel()
				}
				continue
			}
			dist := m.Dist()
			h := topk.New(p.K)
			for r := 0; r < seg.Rows(); r++ {
				if p.Bits != nil && !p.Bits.Test(r) {
					continue
				}
				var d float32
				off := 0
				for f := range c.schema.VectorFields {
					fd := c.schema.VectorFields[f].Dim
					d += dist(fq[off:off+fd], rows[f](r))
					off += fd
				}
				h.Push(seg.IDs[r], d)
			}
			for _, rel := range rels {
				rel()
			}
			results[i] = h.Results()
		}
	})
	segSpan.End()
	if err != nil {
		return nil, err
	}
	mergeSpan := opts.Trace.StartSpan("topk_merge")
	defer mergeSpan.End()
	return topk.Merge(opts.K, results...), nil
}
