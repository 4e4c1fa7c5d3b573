package query

import "vectordb/internal/topk"

// Multi-vector query processing (Sec. 4.2): each entity carries µ vectors;
// a query finds the top-k entities by a monotone aggregation g over the
// per-field similarity functions. Distances follow the smaller-is-better
// convention, so the implemented aggregation is a weighted sum of per-field
// distances — monotone non-decreasing in each component, covering weighted
// sum / average of similarities in the paper's sense.

// IterativeMerging is Algorithm 2 (topk.IterativeMerging) over a
// MultiSource: each round's per-field lists are FieldQuery's, and the
// fallback scores a candidate by FieldDistance on every field.
func IterativeMerging(ms MultiSource, queries [][]float32, weights []float32, k, threshold int) []topk.Result {
	res, _ := topk.IterativeMerging(ms.Fields(), weights, k, threshold,
		func(f, kp int) ([]topk.Result, error) { return ms.FieldQuery(f, queries[f], kp), nil },
		func(id int64, w []float32) (float32, bool, error) {
			var s float32
			for f := range ms.Fields() {
				d, ok := ms.FieldDistance(f, queries[f], id)
				if !ok {
					return 0, false, nil
				}
				s += w[f] * d
			}
			return s, true, nil
		})
	return res
}
