package index_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

var benchSink []topk.Result

// normals returns n standard-normal values: the scan cells' rows and query.
func normals(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

// BenchmarkScanBlocked times one exact top-10 scan of 100k rows: perrow is
// the loop every index ran before the blocked kernels (one indirect
// DistFunc call and one heap push per row, a fresh heap per query), blocked
// is ScanBlocked over 256-row blocks into a pooled heap.
func BenchmarkScanBlocked(b *testing.B) {
	const n, dim, k = 100000, 128, 10
	r := rand.New(rand.NewSource(4096))
	data, q := normals(r, n*dim), normals(r, dim)
	b.Run("perrow", func(b *testing.B) {
		dist := vec.L2.Dist()
		for it := 0; it < b.N; it++ {
			h := topk.New(k)
			for row := 0; row < n; row++ {
				h.Push(int64(row), dist(q, data[row*dim:(row+1)*dim]))
			}
			benchSink = h.Results()
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			h := topk.GetHeap(k)
			index.ScanBlocked(h, vec.L2, q, data, dim, nil, index.Selection{})
			benchSink = h.Results()
			topk.PutHeap(h)
		}
	})
}

// callbackScan is the filtered scan the bitset pushdown replaced: every row
// in ids (row IDs are positions in data) goes through the keep callback,
// and survivors through a pairwise distance gated on the heap's worst.
func callbackScan(h *topk.Heap, q, data []float32, dim int, ids []int64, keep func(int64) bool) {
	worst := float32(math.Inf(1))
	for _, id := range ids {
		if !keep(id) {
			continue
		}
		d := vec.L2Squared(q, data[int(id)*dim:(int(id)+1)*dim])
		if d >= worst {
			continue
		}
		h.Push(id, d)
		if w, set := h.Worst(); set {
			worst = w
		}
	}
}

// BenchmarkFilteredScan times a top-10 search under a range filter over a
// uniform, shuffled attribute in [0, 10000), on a flat scan and on
// IVF_FLAT (nlist 64). The flat and callback cells keep half the rows (attr
// < 5000; IVF at nprobe 32): callback tests every row with a per-row
// closure, flat/bitset compiles the predicate per op with the column's
// FillRange, so the compile is charged to the pushed side, and pushes it
// beneath the batch kernels. ivf/bitset runs the served order per op at
// nprobe 4 (the default, nlist/16) and 32 and at 1, 10 and 50 % widths:
// rank the buckets, resolve the range at the probed buckets' positions
// only, probe those buckets.
func BenchmarkFilteredScan(b *testing.B) {
	const n, dim, k, cut = 100000, 128, 10, 5000
	r := rand.New(rand.NewSource(4096))
	data, q := normals(r, n*dim), normals(r, dim)
	attrs := make([]int64, n)
	for i := range attrs {
		attrs[i] = int64(i * 10000 / n)
	}
	r.Shuffle(n, func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	col := colstore.BuildAttributeColumn(attrs, nil)
	keep := func(id int64) bool { return attrs[id] < cut }
	rows := index.IDsOrDefault(nil, n)
	ib, err := index.NewBuilder("IVF_FLAT", vec.L2, dim, map[string]string{"nlist": "64", "iter": "4"})
	if err != nil {
		b.Fatal(err)
	}
	built, err := ib.Build(data, nil)
	if err != nil {
		b.Fatal(err)
	}
	iv := built.(*ivf.IVF)

	b.Run("flat/callback", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			h := topk.GetHeap(k)
			callbackScan(h, q, data, dim, rows, keep)
			benchSink = h.Results()
			topk.PutHeap(h)
		}
	})
	b.Run("flat/bitset", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			bits := bitset.Get(n)
			col.FillRange(0, cut-1, bits, nil)
			h := topk.GetHeap(k)
			index.ScanBlocked(h, vec.L2, q, data, dim, nil, index.Selection{Bits: bits})
			benchSink = h.Results()
			topk.PutHeap(h)
			bitset.Put(bits)
		}
	})
	b.Run("ivf/callback", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			h := topk.GetHeap(k)
			for _, bucket := range iv.ProbeOrder(q, 32) {
				callbackScan(h, q, data, dim, iv.BucketIDs(bucket), keep)
			}
			benchSink = h.Results()
			topk.PutHeap(h)
		}
	})
	var at []int32
	for _, nprobe := range []int{4, 32} {
		for _, pct := range []int{1, 10, 50} {
			b.Run(fmt.Sprintf("ivf/bitset/nprobe=%d/w=%d%%", nprobe, pct), func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					p := index.SearchParams{K: k, Nprobe: nprobe, Bits: bitset.Get(n)}
					p.Probes = iv.ProbeOrder(q, nprobe)
					at = iv.ProbedPositions(at[:0], p.Probes)
					col.FillRange(0, int64(pct)*100-1, p.Bits, at)
					benchSink = iv.Search(q, p)
					bitset.Put(p.Bits)
				}
			})
		}
	}
}
