// Package metric implements the recall metric of Sec. 7.1: |S∩S′|/|S|
// against brute-force ground truth.
package metric

import "vectordb/internal/topk"

// Recall returns |truth ∩ got| / |truth| for one query.
func Recall(truth, got []topk.Result) float64 {
	if len(truth) == 0 {
		return 1
	}
	set := make(map[int64]struct{}, len(truth))
	for _, r := range truth {
		set[r.ID] = struct{}{}
	}
	hit := 0
	for _, r := range got {
		if _, ok := set[r.ID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// MeanRecall averages Recall over query batches.
func MeanRecall(truth, got [][]topk.Result) float64 {
	if len(truth) == 0 {
		return 1
	}
	var s float64
	for i := range truth {
		s += Recall(truth[i], got[i])
	}
	return s / float64(len(truth))
}
