package hnsw

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/metric"
	"vectordb/internal/vec"
)

func buildHNSW(t *testing.T, d *dataset.Dataset, m, efc int) *HNSW {
	t.Helper()
	b := &Builder{Metric: vec.L2, Dim: d.Dim, M: m, EfConstruction: efc}
	idx, err := b.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idx.(*HNSW)
}

func TestGraphDegreesBounded(t *testing.T) {
	d := dataset.DeepLike(1500, 1)
	h := buildHNSW(t, d, 8, 64)
	for node, levels := range h.links {
		for l, nbrs := range levels {
			max := h.m
			if l == 0 {
				max = h.mmax0
			}
			if len(nbrs) > max {
				t.Fatalf("node %d level %d has degree %d > %d", node, l, len(nbrs), max)
			}
			for _, nb := range nbrs {
				if int(nb) == node {
					t.Fatalf("node %d has a self-loop", node)
				}
			}
		}
	}
}

func TestBaseLayerConnectivity(t *testing.T) {
	d := dataset.DeepLike(1000, 2)
	h := buildHNSW(t, d, 16, 128)
	// BFS over level-0 treating links as undirected (HNSW links are added
	// bidirectionally, shrink may drop one direction).
	adj := make(map[int][]int, len(h.links))
	for node, levels := range h.links {
		if len(levels) == 0 {
			continue
		}
		for _, nb := range levels[0] {
			adj[node] = append(adj[node], int(nb))
			adj[int(nb)] = append(adj[int(nb)], node)
		}
	}
	seen := map[int]bool{h.entry: true}
	queue := []int{h.entry}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if len(seen) < d.N*98/100 {
		t.Fatalf("base layer connectivity %d/%d", len(seen), d.N)
	}
}

func TestEfImprovesRecall(t *testing.T) {
	d := dataset.DeepLike(3000, 3)
	qs := dataset.Queries(d, 15, 4)
	gt := dataset.GroundTruth(d, qs, 10, vec.L2)
	h := buildHNSW(t, d, 16, 128)
	var last float64 = -1
	for _, ef := range []int{10, 64, 256} {
		got := index.SearchBatch(h, qs, index.SearchParams{K: 10, Ef: ef})
		r := metric.MeanRecall(gt, got)
		if r < last-0.02 {
			t.Fatalf("recall decreased with ef: %f -> %f", last, r)
		}
		last = r
	}
	if last < 0.95 {
		t.Fatalf("recall at ef=256 only %.3f", last)
	}
}

func TestLevelsDecayGeometrically(t *testing.T) {
	d := dataset.DeepLike(4000, 5)
	h := buildHNSW(t, d, 16, 32)
	counts := map[int]int{}
	for _, levels := range h.links {
		counts[len(levels)-1]++
	}
	if counts[0] < d.N/2 {
		t.Fatalf("only %d/%d nodes at level 0 exclusively", counts[0], d.N)
	}
	if h.maxLevel < 1 {
		t.Fatalf("maxLevel = %d, expected a layered graph", h.maxLevel)
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilderFromParams(vec.Hamming, 8, nil); err == nil {
		t.Error("binary metric accepted")
	}
	if _, err := NewBuilderFromParams(vec.L2, 8, map[string]string{"m": "1"}); err == nil {
		t.Error("m=1 accepted")
	}
	if _, err := NewBuilderFromParams(vec.L2, 8, map[string]string{"m": "zz"}); err == nil {
		t.Error("bad m accepted")
	}
	b, err := NewBuilderFromParams(vec.L2, 8, map[string]string{"m": "4", "ef_construction": "99", "seed": "7"})
	if err != nil || b.M != 4 || b.EfConstruction != 99 || b.Seed != 7 {
		t.Errorf("params: %+v, %v", b, err)
	}
}

func TestDeterministicBuild(t *testing.T) {
	d := dataset.DeepLike(500, 6)
	a := buildHNSW(t, d, 8, 32)
	b := buildHNSW(t, d, 8, 32)
	q := dataset.Queries(d, 1, 7)
	ra := a.Search(q, index.SearchParams{K: 10, Ef: 64})
	rb := b.Search(q, index.SearchParams{K: 10, Ef: 64})
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
}

// TestAcceptsAndWorst pins the beam heap's exact semantics: worst is the
// largest kept distance, and once full a candidate enters only strictly
// below it.
func TestAcceptsAndWorst(t *testing.T) {
	h := &maxHeap{k: 2}
	if h.full() {
		t.Fatal("empty heap reported full")
	}
	if !h.accepts(100) {
		t.Fatal("non-full heap must accept anything")
	}
	h.push(1, 1)
	h.push(2, 2)
	if !h.full() || h.worst() != 2 {
		t.Fatalf("full %v, worst %v; want true, 2", h.full(), h.worst())
	}
	if h.accepts(2) {
		t.Fatal("equal distance must be rejected when full")
	}
	if !h.accepts(1.5) {
		t.Fatal("better distance must be accepted")
	}
	h.push(3, 1.5)
	if h.worst() != 1.5 {
		t.Fatalf("worst after eviction = %v, want 1.5", h.worst())
	}
}
