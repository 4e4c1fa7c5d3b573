package ivf

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/vec"
)

func TestSearchBatchMatchesPerQuery(t *testing.T) {
	d := dataset.DeepLike(1500, 11)
	qs := dataset.Queries(d, 23, 12)
	for _, fine := range []Fine{FineFlat, FineSQ8, FinePQ} {
		x := buildIVF(t, fine, d, 16)
		p := index.SearchParams{K: 10, Nprobe: 4}
		batch := x.SearchBatch(qs, p)
		if len(batch) != 23 {
			t.Fatalf("%s: %d batch results", x.Name(), len(batch))
		}
		for qi := 0; qi < 23; qi++ {
			single := x.Search(qs[qi*d.Dim:(qi+1)*d.Dim], p)
			if len(single) != len(batch[qi]) {
				t.Fatalf("%s query %d: %d vs %d results", x.Name(), qi, len(batch[qi]), len(single))
			}
			// The batch path runs the query-tile kernels while the
			// per-query path runs the early-abandon blocked kernels; their
			// float summation orders differ, so distances may disagree by
			// ulps and ulp-close neighbors may swap ranks. Demand matching
			// distances within relative tolerance at every rank; where IDs
			// agree, demand the tight bound per result too.
			for i := range single {
				a, b := batch[qi][i], single[i]
				if a == b {
					continue
				}
				if !approxDist(a.Distance, b.Distance) {
					t.Fatalf("%s query %d rank %d: %v vs %v", x.Name(), qi, i, a, b)
				}
			}
		}
	}
}

// approxDist is the documented FP tolerance between kernel variants with
// different summation orders (see DESIGN.md §8): 1e-5 relative.
func approxDist(a, b float32) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := float32(1)
	if aa := abs32(a); aa > scale {
		scale = aa
	}
	if bb := abs32(b); bb > scale {
		scale = bb
	}
	return diff <= 1e-5*scale
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSearchBatchFilter(t *testing.T) {
	d := dataset.DeepLike(600, 13)
	x := buildIVF(t, FineFlat, d, 8)
	qs := dataset.Queries(d, 4, 14)
	p := index.SearchParams{K: 5, Nprobe: 8, Bits: evenRows(d.N)}
	for _, res := range x.SearchBatch(qs, p) {
		for _, r := range res {
			if r.ID%2 != 0 {
				t.Fatalf("filter violated: %d", r.ID)
			}
		}
	}
}

func TestSearchBatchEmpty(t *testing.T) {
	d := dataset.DeepLike(100, 15)
	x := buildIVF(t, FineFlat, d, 4)
	if got := x.SearchBatch(nil, index.SearchParams{K: 3}); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
}

func BenchmarkBatchVsPerQuery(b *testing.B) {
	d := dataset.SIFTLike(20000, 16)
	bld := &Builder{Fine: FineFlat, Metric: vec.L2, Dim: d.Dim, Nlist: 64, MaxIter: 4}
	idx, err := bld.Build(d.Data, nil)
	if err != nil {
		b.Fatal(err)
	}
	x := idx.(*IVF)
	qs := dataset.Queries(d, 128, 17)
	p := index.SearchParams{K: 50, Nprobe: 16}
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for qi := 0; qi < 128; qi++ {
				x.Search(qs[qi*d.Dim:(qi+1)*d.Dim], p)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x.SearchBatch(qs, p)
		}
	})
}
