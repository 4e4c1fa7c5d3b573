package query

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/metric"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func recipeSource(t testing.TB, n int) (*MultiTable, [][]float32) {
	t.Helper()
	mv := dataset.RecipeLikeNoise(n, []int{16, 24}, 0.4, 1)
	mt, err := NewMultiTable(vec.L2, mv.Dims, mv.Fields, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := [][]float32{
		append([]float32(nil), mv.Field(0, 5)...),
		append([]float32(nil), mv.Field(1, 5)...),
	}
	// Perturb so the query isn't an exact member.
	for _, qv := range q {
		for j := range qv {
			qv[j] += 0.01
		}
	}
	return mt, q
}

// boundedNRA is the NRA-x baseline over the round-based NRA: each field's
// top-x fetched once, and topk.NRA run over those bounded lists.
func boundedNRA(ms MultiSource, queries [][]float32, weights []float32, k, x int) topk.NRAResult {
	lists := make([][]topk.Result, ms.Fields())
	for f := range lists {
		lists[f] = ms.FieldQuery(f, queries[f], x)
	}
	return topk.NRA(lists, weights, k)
}

func TestNRAExactOnFullLists(t *testing.T) {
	// With complete per-field lists (x = n), NRA must determine the exact
	// top-k: it equals the exhaustive ground truth.
	mt, q := recipeSource(t, 300)
	w := []float32{1, 0.5}
	truth := mt.GroundTruth(q, w, 10)
	res := boundedNRA(mt, q, w, 10, 300)
	if !res.Determined {
		t.Fatal("NRA over complete lists not determined")
	}
	if r := metric.Recall(truth, res.Results); r < 0.999 {
		t.Fatalf("NRA recall %.3f", r)
	}
	for i := range truth {
		if res.Results[i].ID != truth[i].ID {
			t.Fatalf("rank %d: %d != %d", i, res.Results[i].ID, truth[i].ID)
		}
	}
}

func TestBoundedNRALowRecall(t *testing.T) {
	// The paper's NRA-k baseline: with lists bounded at k the recall is
	// poor (≈0.1 in Fig. 16); it must at least be clearly below the
	// iterative-merging recall on the same workload.
	mt, q := recipeSource(t, 1000)
	w := []float32{1, 1}
	truth := mt.GroundTruth(q, w, 50)
	nraRes := boundedNRA(mt, q, w, 50, 50)
	img := IterativeMerging(mt, q, w, 50, 4096)
	rNRA := metric.Recall(truth, nraRes.Results)
	rIMG := metric.Recall(truth, img)
	if rIMG < 0.9 {
		t.Fatalf("IMG recall %.3f too low", rIMG)
	}
	if rNRA >= rIMG {
		t.Fatalf("bounded NRA recall %.3f not below IMG %.3f", rNRA, rIMG)
	}
}

func TestIterativeMergingEarlyStop(t *testing.T) {
	// With a huge threshold IMG must stop as soon as NRA determines the
	// answer, not at the threshold.
	mt, q := recipeSource(t, 400)
	w := []float32{1, 1}
	truth := mt.GroundTruth(q, w, 5)
	got := IterativeMerging(mt, q, w, 5, 1<<20)
	if r := metric.Recall(truth, got); r < 0.999 {
		t.Fatalf("IMG recall %.3f", r)
	}
}

func TestNRAUnitWeightsDefault(t *testing.T) {
	lists := [][]topk.Result{
		{{ID: 1, Distance: 0.1}, {ID: 2, Distance: 0.2}},
		{{ID: 2, Distance: 0.1}, {ID: 1, Distance: 0.3}},
	}
	res := topk.NRA(lists, nil, 1)
	// exact scores: id1 = 0.4, id2 = 0.3 → id2 wins
	if len(res.Results) != 1 || res.Results[0].ID != 2 {
		t.Fatalf("NRA = %+v", res)
	}
	if !res.Determined {
		t.Fatal("complete 2-element lists should determine top-1")
	}
}

func TestNRAAccessesCounted(t *testing.T) {
	lists := [][]topk.Result{
		{{ID: 1, Distance: 0.1}},
		{{ID: 1, Distance: 0.2}},
	}
	res := topk.NRA(lists, nil, 1)
	if res.Accesses != 2 {
		t.Fatalf("Accesses = %d, want 2", res.Accesses)
	}
}

func TestNRAEmptyLists(t *testing.T) {
	res := topk.NRA([][]topk.Result{{}, {}}, nil, 5)
	if len(res.Results) != 0 || res.Determined {
		t.Fatalf("empty lists: %+v", res)
	}
}

func TestMultiTableErrors(t *testing.T) {
	if _, err := NewMultiTable(vec.L2, []int{2}, nil, nil); err == nil {
		t.Error("dims/fields mismatch accepted")
	}
	if _, err := NewMultiTable(vec.L2, []int{2, 2}, [][]float32{{1, 2}, {1, 2, 3, 4}}, nil); err == nil {
		t.Error("row mismatch accepted")
	}
	mt, err := NewMultiTable(vec.L2, []int{2}, [][]float32{{1, 2, 3, 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mt.BuildIndex("NOPE", nil); err == nil {
		t.Error("unknown index accepted")
	}
	if mt.Fields() != 1 {
		t.Error("Fields wrong")
	}
}
