package query

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/metric"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func TestStandardNRAMatchesRoundNRA(t *testing.T) {
	// Same inputs → same top-k; the variants differ only in bookkeeping
	// schedule (per-access vs per-round).
	mv := dataset.RecipeLikeNoise(400, []int{8, 8}, 0.4, 31)
	mt, err := NewMultiTable(vec.L2, mv.Dims, mv.Fields, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := [][]float32{
		append([]float32(nil), mv.Field(0, 3)...),
		append([]float32(nil), mv.Field(1, 3)...),
	}
	lists := make([][]topk.Result, 2)
	for f := range lists {
		lists[f] = mt.FieldQuery(f, q[f], 400)
	}
	w := []float32{1, 2}
	a := topk.NRA(lists, w, 10)
	b := StandardNRA(lists, w, 10)
	if a.Determined != b.Determined {
		t.Fatalf("Determined: %v vs %v", a.Determined, b.Determined)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i].ID != b.Results[i].ID {
			t.Fatalf("rank %d: %d vs %d", i, a.Results[i].ID, b.Results[i].ID)
		}
	}
	truth := mt.GroundTruth(q, w, 10)
	if r := metric.Recall(truth, b.Results); r < 0.999 {
		t.Fatalf("StandardNRA recall %.3f over complete lists", r)
	}
}

func TestStandardNRAEarlyStopUsesFewerAccesses(t *testing.T) {
	// Per-access checking must stop no later than the depth the round
	// variant needs (it checks more often).
	mv := dataset.RecipeLikeNoise(600, []int{8, 8}, 0.4, 32)
	mt, err := NewMultiTable(vec.L2, mv.Dims, mv.Fields, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := [][]float32{
		append([]float32(nil), mv.Field(0, 7)...),
		append([]float32(nil), mv.Field(1, 7)...),
	}
	lists := make([][]topk.Result, 2)
	for f := range lists {
		lists[f] = mt.FieldQuery(f, q[f], 600)
	}
	a := topk.NRA(lists, nil, 5)
	b := StandardNRA(lists, nil, 5)
	if !a.Determined || !b.Determined {
		t.Skip("workload did not determine; nothing to compare")
	}
	if b.Accesses > a.Accesses {
		t.Fatalf("standard NRA used %d accesses, round NRA %d", b.Accesses, a.Accesses)
	}
}

func TestStandardNRAEmptyAndBounded(t *testing.T) {
	res := StandardNRA([][]topk.Result{{}, {}}, nil, 3)
	if res.Determined || len(res.Results) != 0 {
		t.Fatalf("empty lists: %+v", res)
	}
	lists := [][]topk.Result{
		{{ID: 1, Distance: 0.1}, {ID: 2, Distance: 0.5}},
		{{ID: 2, Distance: 0.2}, {ID: 1, Distance: 0.4}},
	}
	res = StandardNRA(lists, nil, 1)
	if len(res.Results) != 1 {
		t.Fatalf("results: %+v", res)
	}
	// exact: id1 = 0.5, id2 = 0.7
	if res.Results[0].ID != 1 {
		t.Fatalf("top-1 = %d, want 1", res.Results[0].ID)
	}
}
