package ivf

import (
	"fmt"
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// BenchmarkProbeOrder times step 1 of an IVF query alone: ranking the
// coarse centroids against one query and keeping the nprobe closest.
func BenchmarkProbeOrder(b *testing.B) {
	for _, c := range []struct{ nlist, dim, nprobe int }{
		{128, 32, 4},
		{256, 64, 16},
	} {
		b.Run(fmt.Sprintf("nlist%d/dim%d/nprobe%d", c.nlist, c.dim, c.nprobe), func(b *testing.B) {
			d := dataset.Uniform(c.nlist*8, c.dim, 71)
			bld := &Builder{Fine: FineFlat, Metric: vec.L2, Dim: c.dim, Nlist: c.nlist, MaxIter: 2}
			idx, err := bld.Build(d.Data, nil)
			if err != nil {
				b.Fatal(err)
			}
			x := idx.(*IVF)
			qs := dataset.Queries(d, 16, 72)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[(i%16)*c.dim : (i%16+1)*c.dim]
				if len(x.ProbeOrder(q, c.nprobe)) != c.nprobe {
					b.Fatal("short probe order")
				}
			}
		})
	}
}

// BenchmarkBuild times an IVF_FLAT build of 16,384 × 32 rows into 128
// buckets: k-means training of the coarse quantizer plus bucket assignment.
func BenchmarkBuild(b *testing.B) {
	d := dataset.Uniform(16384, 32, 73)
	bld := &Builder{Fine: FineFlat, Metric: vec.L2, Dim: d.Dim, Nlist: 128}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := bld.Build(d.Data, nil)
		if err != nil {
			b.Fatal(err)
		}
		if idx.Size() != d.N {
			b.Fatalf("built %d rows, want %d", idx.Size(), d.N)
		}
	}
}

// BenchmarkBlob times the IVF_FLAT blob codec at the dim-64 IVF build's
// shape (16,384 × 64 rows, 256 buckets): MarshalIndex, which a sealed
// segment's index build waits on, and unmarshalIVF, which a reader's first
// search of the segment waits on.
func BenchmarkBlob(b *testing.B) {
	d := dataset.Uniform(16384, 64, 74)
	idx, err := (&Builder{Fine: FineFlat, Metric: vec.L2, Dim: d.Dim, Nlist: 256, MaxIter: 2}).Build(d.Data, nil)
	if err != nil {
		b.Fatal(err)
	}
	x := idx.(*IVF)
	blob, err := x.MarshalIndex()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("marshal", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := x.MarshalIndex(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			if _, err := unmarshalIVF(FineFlat, vec.L2, d.Dim, blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProbe times one query of probe.cN's shape on its own: two
// IVF_FLAT segments of 16,384 × 32 uniform rows (nlist 128), each probed
// at k 100 into its own pooled heap as two pool tasks would, then one
// Fold and the final sort. nprobe 4 is the workload's; 16 and 32 show how
// the top-k upkeep scales with the candidates a probe offers.
func BenchmarkProbe(b *testing.B) {
	const k = 100
	var segs []*IVF
	for seed := int64(81); seed <= 82; seed++ {
		d := dataset.Uniform(16384, 32, seed)
		idx, err := (&Builder{Fine: FineFlat, Metric: vec.L2, Dim: d.Dim, Nlist: 128}).Build(d.Data, nil)
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, idx.(*IVF))
	}
	qs := dataset.Queries(dataset.Uniform(16384, 32, 81), 64, 83)
	for _, nprobe := range []int{4, 16, 32} {
		b.Run(fmt.Sprintf("nprobe=%d", nprobe), func(b *testing.B) {
			p := index.SearchParams{K: k, Nprobe: nprobe}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q := qs[(i%64)*32 : (i%64+1)*32]
				h0, h1 := topk.GetHeap(k), topk.GetHeap(k)
				segs[0].SearchInto(h0, q, p)
				segs[1].SearchInto(h1, q, p)
				h0.Fold(h1)
				if len(h0.Results()) != k {
					b.Fatal("short results")
				}
				topk.PutHeap(h0)
				topk.PutHeap(h1)
			}
		})
	}
}
