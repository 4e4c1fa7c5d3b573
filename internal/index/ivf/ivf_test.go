package ivf

import (
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func buildIVF(t *testing.T, fine Fine, d *dataset.Dataset, nlist int) *IVF {
	t.Helper()
	b := &Builder{Fine: fine, Metric: vec.L2, Dim: d.Dim, Nlist: nlist, MaxIter: 4}
	idx, err := b.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idx.(*IVF)
}

func TestBucketsPartitionTheData(t *testing.T) {
	d := dataset.DeepLike(1000, 1)
	x := buildIVF(t, FineFlat, d, 16)
	if x.Nlist() != 16 {
		t.Fatalf("Nlist = %d", x.Nlist())
	}
	total := 0
	seen := map[int64]bool{}
	for b := 0; b < x.Nlist(); b++ {
		for _, id := range x.BucketIDs(b) {
			if seen[id] {
				t.Fatalf("id %d in two buckets", id)
			}
			seen[id] = true
		}
		total += x.BucketLen(b)
	}
	if total != d.N {
		t.Fatalf("buckets hold %d rows, want %d", total, d.N)
	}
}

func TestProbeOrderIsNearestCentroids(t *testing.T) {
	d := dataset.DeepLike(800, 2)
	x := buildIVF(t, FineFlat, d, 8)
	q := d.Row(5)
	probes := x.ProbeOrder(q, 8)
	if len(probes) != 8 {
		t.Fatalf("probes = %v", probes)
	}
	// Distances must be non-decreasing along the probe order.
	prev := float32(-1)
	for _, c := range probes {
		dist := vec.L2Squared(q, x.Centroid(c))
		if dist < prev {
			t.Fatalf("probe order not sorted by centroid distance")
		}
		prev = dist
	}
	// nprobe defaults and clamps.
	if got := x.ProbeOrder(q, 0); len(got) < 1 {
		t.Fatal("default nprobe empty")
	}
	if got := x.ProbeOrder(q, 100); len(got) != 8 {
		t.Fatalf("nprobe clamp failed: %d", len(got))
	}
}

func TestFullProbeEqualsExact(t *testing.T) {
	d := dataset.DeepLike(600, 3)
	qs := dataset.Queries(d, 5, 4)
	gt := dataset.GroundTruth(d, qs, 10, vec.L2)
	x := buildIVF(t, FineFlat, d, 16)
	for qi := 0; qi < 5; qi++ {
		res := x.Search(qs[qi*d.Dim:(qi+1)*d.Dim], index.SearchParams{K: 10, Nprobe: 16})
		for i := range res {
			if res[i].ID != gt[qi][i].ID {
				t.Fatalf("query %d rank %d: %d != %d", qi, i, res[i].ID, gt[qi][i].ID)
			}
		}
	}
}

func TestFineQuantizersShareCoarsePartition(t *testing.T) {
	d := dataset.DeepLike(600, 5)
	flat := buildIVF(t, FineFlat, d, 8)
	sq8 := buildIVF(t, FineSQ8, d, 8)
	pq := buildIVF(t, FinePQ, d, 8)
	for b := 0; b < 8; b++ {
		if flat.BucketLen(b) != sq8.BucketLen(b) || flat.BucketLen(b) != pq.BucketLen(b) {
			t.Fatalf("bucket %d sizes diverge: %d/%d/%d", b, flat.BucketLen(b), sq8.BucketLen(b), pq.BucketLen(b))
		}
	}
}

func TestCompressionRatios(t *testing.T) {
	d := dataset.SIFTLike(2000, 6)
	flat := buildIVF(t, FineFlat, d, 16)
	sq8 := buildIVF(t, FineSQ8, d, 16)
	pq := (&Builder{Fine: FinePQ, Metric: vec.L2, Dim: d.Dim, Nlist: 16, MaxIter: 4, PQM: 16}).mustBuild(t, d)
	// IVF_SQ8 takes ~1/4 the vector bytes of IVF_FLAT (footnote 6).
	if r := float64(flat.MemoryBytes()) / float64(sq8.MemoryBytes()); r < 3 || r > 5 {
		t.Errorf("FLAT/SQ8 memory ratio = %.2f, want ≈4", r)
	}
	if flat.CodeBytesPerVector() != d.Dim*4 || sq8.CodeBytesPerVector() != d.Dim {
		t.Errorf("code sizes: flat=%d sq8=%d", flat.CodeBytesPerVector(), sq8.CodeBytesPerVector())
	}
	if pq.CodeBytesPerVector() != 16 {
		t.Errorf("pq code size = %d, want 16", pq.CodeBytesPerVector())
	}
}

func (b *Builder) mustBuild(t *testing.T, d *dataset.Dataset) *IVF {
	t.Helper()
	idx, err := b.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	return idx.(*IVF)
}

// evenRows is the pushed filter "even build positions" (with nil ids, even
// IDs) over n rows.
func evenRows(n int) *bitset.Bitset {
	b := bitset.New(n)
	for i := 0; i < n; i += 2 {
		b.Set(i)
	}
	return b
}

func TestScanBucketFilter(t *testing.T) {
	d := dataset.DeepLike(300, 7)
	for _, fine := range []Fine{FineFlat, FineSQ8, FinePQ} {
		x := buildIVF(t, fine, d, 4)
		h := topk.New(5)
		x.ScanBucket(d.Row(0), 0, index.Selection{Bits: evenRows(d.N)}, h)
		for _, r := range h.Results() {
			if r.ID%2 != 0 {
				t.Fatalf("%s: filter violated", x.Name())
			}
		}
	}
}

func TestRegistryParamsParsing(t *testing.T) {
	b, err := NewBuilderFromParams(FineFlat, vec.L2, 8, map[string]string{"nlist": "7", "nprobe": "3", "iter": "2", "seed": "5"})
	if err != nil {
		t.Fatal(err)
	}
	if b.Nlist != 7 || b.Nprobe != 3 || b.MaxIter != 2 || b.Seed != 5 {
		t.Fatalf("params not parsed: %+v", b)
	}
	if _, err := NewBuilderFromParams(FineFlat, vec.L2, 8, map[string]string{"nlist": "x"}); err == nil {
		t.Fatal("bad nlist accepted")
	}
	if _, err := NewBuilderFromParams(FineFlat, vec.Hamming, 8, nil); err == nil {
		t.Fatal("binary metric accepted")
	}
}

func TestAutoNlistBounds(t *testing.T) {
	if autoNlist(10) != 1 {
		t.Errorf("autoNlist(10) = %d", autoNlist(10))
	}
	if autoNlist(1<<20) != 4096 {
		t.Errorf("autoNlist cap failed: %d", autoNlist(1<<20))
	}
	if autoPQM(128) != 16 || autoPQM(6) != 2 || autoPQM(1) != 1 {
		t.Errorf("autoPQM wrong: %d %d %d", autoPQM(128), autoPQM(6), autoPQM(1))
	}
}

func TestIPMetricOrdering(t *testing.T) {
	d := dataset.DeepLike(500, 8)
	b := &Builder{Fine: FineFlat, Metric: vec.IP, Dim: d.Dim, Nlist: 8, MaxIter: 4}
	idx, err := b.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := d.Row(3)
	res := idx.Search(q, index.SearchParams{K: 5, Nprobe: 8})
	// Self should be the best inner-product match on normalized data.
	if res[0].ID != 3 {
		t.Fatalf("IP self-match = %v", res[0])
	}
}
