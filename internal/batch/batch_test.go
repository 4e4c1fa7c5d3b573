package batch

import (
	"math/rand"
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func makeReq(t testing.TB, n, m, dim, k int) *Request {
	t.Helper()
	d := dataset.Uniform(n, dim, 1)
	qs := dataset.Queries(d, m, 2)
	return &Request{Queries: qs, Data: d.Data, Dim: dim, K: k, Dist: vec.L2Squared}
}

func sameResults(a, b [][]topk.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func TestEnginesAgreeWithBruteForce(t *testing.T) {
	req := makeReq(t, 500, 37, 16, 7)
	m, n := req.counts()
	want := make([][]topk.Result, m)
	for qi := 0; qi < m; qi++ {
		h := topk.New(req.K)
		q := req.Queries[qi*req.Dim : (qi+1)*req.Dim]
		for i := 0; i < n; i++ {
			h.Push(int64(i), req.Dist(q, req.Data[i*req.Dim:(i+1)*req.Dim]))
		}
		want[qi] = h.Results()
	}
	for _, e := range []Engine{&ThreadPerQuery{}, &CacheAware{}, &ThreadPerQuery{Threads: 3}, &CacheAware{Threads: 3, L3Bytes: 4096}} {
		got := e.MultiQuery(req)
		if !sameResults(got, want) {
			t.Errorf("%s: results differ from brute force", e.Name())
		}
	}
}

func TestEnginesAgreeWithEachOther(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n := 50 + r.Intn(400)
		m := 1 + r.Intn(60)
		dim := 4 + r.Intn(28)
		k := 1 + r.Intn(10)
		req := makeReq(t, n, m, dim, k)
		a := (&ThreadPerQuery{}).MultiQuery(req)
		b := (&CacheAware{}).MultiQuery(req)
		if !sameResults(a, b) {
			t.Fatalf("trial %d (n=%d m=%d dim=%d k=%d): engines disagree", trial, n, m, dim, k)
		}
	}
}

func TestCustomIDs(t *testing.T) {
	req := makeReq(t, 100, 5, 8, 3)
	req.IDs = make([]int64, 100)
	for i := range req.IDs {
		req.IDs[i] = int64(i) + 5000
	}
	for _, e := range []Engine{&ThreadPerQuery{}, &CacheAware{}} {
		for _, rs := range e.MultiQuery(req) {
			for _, r := range rs {
				if r.ID < 5000 {
					t.Fatalf("%s: id %d not remapped", e.Name(), r.ID)
				}
			}
		}
	}
}

func TestBlockSizeEquation(t *testing.T) {
	// Equation (1): s = L3 / (d*4 + t*k*12)
	got := BlockSize(36<<20, 128, 16, 50, 1<<30)
	want := int((36 << 20) / (128*4 + 16*50*12))
	if got != want {
		t.Fatalf("BlockSize = %d, want %d", got, want)
	}
	if BlockSize(1, 128, 16, 50, 100) != 1 {
		t.Fatal("BlockSize must clamp to 1")
	}
	if BlockSize(1<<40, 128, 16, 50, 10) != 10 {
		t.Fatal("BlockSize must clamp to m")
	}
}

func TestSingleQuerySingleVector(t *testing.T) {
	req := &Request{
		Queries: []float32{1, 2},
		Data:    []float32{1, 2},
		Dim:     2, K: 5, Dist: vec.L2Squared,
	}
	for _, e := range []Engine{&ThreadPerQuery{}, &CacheAware{}} {
		got := e.MultiQuery(req)
		if len(got) != 1 || len(got[0]) != 1 || got[0][0].ID != 0 || got[0][0].Distance != 0 {
			t.Fatalf("%s: %v", e.Name(), got)
		}
	}
}

func TestMoreThreadsThanData(t *testing.T) {
	req := makeReq(t, 3, 2, 4, 2)
	e := &CacheAware{Threads: 64}
	got := e.MultiQuery(req)
	if len(got) != 2 || len(got[0]) != 2 {
		t.Fatalf("got %v", got)
	}
}

// The cache-aware engine must touch the data fewer times; observable proxy:
// with a tiny modeled L3, block size collapses to 1 and both engines still
// agree (correctness under the degenerate block size).
func TestDegenerateBlockSize(t *testing.T) {
	req := makeReq(t, 200, 16, 32, 5)
	a := (&CacheAware{L3Bytes: 1}).MultiQuery(req)
	b := (&ThreadPerQuery{}).MultiQuery(req)
	if !sameResults(a, b) {
		t.Fatal("degenerate block size broke correctness")
	}
}

// BenchmarkEngines runs both engines over two inputs: 256 queries at k=50
// through the pairwise distance, and the tile cell — 16 queries at k=10
// over 100k rows through the batch kernels, where CacheAware's query tiles
// reuse each cache-resident block that ThreadPerQuery streams once per
// query.
func BenchmarkEngines(b *testing.B) {
	small, big := dataset.SIFTLike(20000, 4), dataset.SIFTLike(100000, 4)
	for _, in := range []struct {
		name string
		req  *Request
	}{
		{"n20k_nq256_k50", &Request{Queries: dataset.Queries(small, 256, 5), Data: small.Data, Dim: small.Dim, K: 50, Dist: vec.L2Squared}},
		{"n100k_nq16_k10", &Request{Queries: dataset.Queries(big, 16, 5), Data: big.Data, Dim: big.Dim, K: 10, Metric: vec.L2}},
	} {
		for _, e := range []Engine{&ThreadPerQuery{}, &CacheAware{}} {
			b.Run(in.name+"/"+e.Name(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e.MultiQuery(in.req)
				}
			})
		}
	}
}

func TestSharedHeapEngineAgrees(t *testing.T) {
	req := makeReq(t, 300, 17, 12, 6)
	want := (&ThreadPerQuery{}).MultiQuery(req)
	got := (&SharedHeap{}).MultiQuery(req)
	if !sameResults(got, want) {
		t.Fatal("shared-heap engine diverges from baseline")
	}
	got = (&SharedHeap{Threads: 3, L3Bytes: 4096}).MultiQuery(req)
	if !sameResults(got, want) {
		t.Fatal("shared-heap engine diverges with custom config")
	}
}
