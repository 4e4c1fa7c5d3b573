package ivf

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/vec"
)

// TestSearchAllocs pins the per-query allocation budget of the IVF read
// path: with pooled heaps and pooled distance buffers, a steady-state
// FLAT-bucket search allocates only the probe list, the SQ8 fused table
// (for IVF_SQ8) and the returned results — a handful of objects, not one
// per scanned row or per probed bucket.
func TestSearchAllocs(t *testing.T) {
	d := dataset.DeepLike(4000, 51)
	q := dataset.Queries(d, 1, 52)
	p := index.SearchParams{K: 10, Nprobe: 8}
	for _, fine := range []Fine{FineFlat, FineSQ8} {
		bld := &Builder{Fine: fine, Metric: vec.L2, Dim: d.Dim, Nlist: 32, MaxIter: 4}
		idx, err := bld.Build(d.Data, nil)
		if err != nil {
			t.Fatal(err)
		}
		x := idx.(*IVF)
		x.Search(q, p) // warm the pools
		avg := testing.AllocsPerRun(50, func() {
			if len(x.Search(q, p)) == 0 {
				t.Fatal("no results")
			}
		})
		// Budget: ranked centroids + probe list + (SQ8Query tables) +
		// sorted results. Anything O(rows) would be hundreds.
		if avg > 15 {
			t.Errorf("%s: Search allocates %.1f objects/op, want <= 15", x.Name(), avg)
		}
	}
}
