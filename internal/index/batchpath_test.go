package index_test

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	_ "vectordb/internal/index/all"
	"vectordb/internal/kmeans"
	"vectordb/internal/vec"
)

// TestIndexScansUseBatchKernels is the dispatch-counter conformance guard
// of the blocked read path. An unfiltered search on the brute-force index
// and on every IVF index must go through the hooked batch kernel entry
// points: a zero count means a scan path silently regressed to a per-pair
// loop over its contiguous block. The IVF family (coarse ranking, k-means
// training, bucket assignment, PQ tables) must moreover make no per-row
// dispatch at all, in Build or Search, for L2 and IP; neither may
// kmeans.Train.
func TestIndexScansUseBatchKernels(t *testing.T) {
	d := dataset.DeepLike(1200, 41)
	qs := dataset.Queries(d, 2, 42)
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	// noPerRow fails the test when the step just run made a per-row
	// dispatch, and resets the counters for the next step.
	noPerRow := func(step string) {
		t.Helper()
		if n := vec.DispatchCount(vec.CurrentLevel()); n != 0 {
			t.Errorf("%s made %d per-row kernel dispatches, want 0", step, n)
		}
		vec.ResetDispatchCounts()
	}

	vec.ResetDispatchCounts()
	if _, err := kmeans.Train(d.Data, d.Dim, kmeans.Config{K: 16, MaxIter: 4}); err != nil {
		t.Fatal(err)
	}
	if vec.BatchDispatchTotal() == 0 {
		t.Error("kmeans.Train made no batch-kernel dispatches")
	}
	noPerRow("kmeans.Train")

	for _, name := range []string{"FLAT", "IVF_FLAT", "IVF_SQ8", "IVF_PQ"} {
		for _, metric := range []vec.Metric{vec.L2, vec.IP} {
			step := name + "/" + metric.String()
			b, err := index.NewBuilder(name, metric, d.Dim, map[string]string{"iter": "4"})
			if err != nil {
				t.Fatal(err)
			}
			idx, err := b.Build(d.Data, nil)
			if err != nil {
				t.Fatal(err)
			}
			noPerRow(step + " Build")
			p := index.SearchParams{K: 10, Nprobe: 8}
			if res := idx.Search(qs[:d.Dim], p); len(res) == 0 {
				t.Fatalf("%s returned no results", step)
			}
			if vec.BatchDispatchTotal() == 0 {
				t.Errorf("%s: Search made no batch-kernel dispatches", step)
			}
			noPerRow(step + " Search")
		}
	}
}
