package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func randBlock(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func refHeap(metric vec.Metric, query, data []float32, dim, k int, ids []int64, filter func(int64) bool) []topk.Result {
	dist := metric.Dist()
	h := topk.New(k)
	n := len(data) / dim
	for i := 0; i < n; i++ {
		id := int64(i)
		if ids != nil {
			id = ids[i]
		}
		if filter != nil && !filter(id) {
			continue
		}
		h.Push(id, dist(query, data[i*dim:(i+1)*dim]))
	}
	return h.Results()
}

func closeEnough(a, b float32) bool {
	diff := float64(a) - float64(b)
	if diff < 0 {
		diff = -diff
	}
	scale := math.Max(1, math.Max(math.Abs(float64(a)), math.Abs(float64(b))))
	return diff <= 1e-5*scale
}

// TestScanBlockedMatchesPairwise pins the shared blocked scan against the
// plain pairwise loop it replaced, across metrics (cosine takes the pairwise
// fallback), ID mappings, filters, block-boundary sizes and a pre-seeded heap.
func TestScanBlockedMatchesPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	dims := []int{1, 3, 17, 100, 131}
	ns := []int{0, 1, 255, 256, 257, 700}
	for _, metric := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
		for _, dim := range dims {
			for _, n := range ns {
				data := randBlock(r, n*dim)
				q := randBlock(r, dim)
				var ids []int64
				if n%2 == 0 {
					ids = make([]int64, n)
					for i := range ids {
						ids[i] = int64(i) * 7
					}
				}
				var filter func(int64) bool
				var sel Selection
				if n%3 == 0 {
					// Positions and IDs (7·position) have the same parity.
					filter = func(id int64) bool { return id%2 == 0 }
					sel.Bits = bitsetFor(n, func(i int) bool { return i%2 == 0 })
				}
				k := 10
				h := topk.New(k)
				ScanBlocked(h, metric, q, data, dim, ids, sel)
				got := h.Results()
				want := refHeap(metric, q, data, dim, k, ids, filter)
				if len(got) != len(want) {
					t.Fatalf("%v dim %d n %d: %d results, want %d", metric, dim, n, len(got), len(want))
				}
				for i := range want {
					if got[i] == want[i] {
						continue
					}
					if !closeEnough(got[i].Distance, want[i].Distance) {
						t.Fatalf("%v dim %d n %d rank %d: %v, want %v", metric, dim, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestScanBlockedSeededHeap: a heap carrying results (and a worst bound)
// from a previous segment must keep pruning correctly — the combined
// result equals a scan over the concatenation.
func TestScanBlockedSeededHeap(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	dim, k := 16, 8
	a := randBlock(r, 300*dim)
	b := randBlock(r, 300*dim)
	q := randBlock(r, dim)
	idsA := make([]int64, 300)
	idsB := make([]int64, 300)
	for i := range idsA {
		idsA[i] = int64(i)
		idsB[i] = int64(i + 300)
	}
	h := topk.New(k)
	ScanBlocked(h, vec.L2, q, a, dim, idsA, Selection{})
	ScanBlocked(h, vec.L2, q, b, dim, idsB, Selection{})
	got := h.Results()
	all := append(append([]float32{}, a...), b...)
	want := refHeap(vec.L2, q, all, dim, k, append(append([]int64{}, idsA...), idsB...), nil)
	for i := range want {
		if got[i].ID != want[i].ID && !closeEnough(got[i].Distance, want[i].Distance) {
			t.Fatalf("rank %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestScanBlockedUsesBatchKernels is the conformance guard: the unfiltered
// L2/IP scans must dispatch through the hooked batch entry points (counter
// > 0), and the pooled buffer path must not allocate per call.
func TestScanBlockedUsesBatchKernels(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	dim := 32
	data := randBlock(r, 600*dim)
	q := randBlock(r, dim)
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	for _, metric := range []vec.Metric{vec.L2, vec.IP} {
		vec.ResetDispatchCounts()
		h := topk.New(5)
		ScanBlocked(h, metric, q, data, dim, nil, Selection{})
		if got := vec.BatchDispatchTotal(); got == 0 {
			t.Fatalf("%v: ScanBlocked made no batch-kernel dispatches", metric)
		}
	}
	// Only metrics without a batch kernel fall back to pairwise.
	vec.ResetDispatchCounts()
	h := topk.New(5)
	ScanBlocked(h, vec.Cosine, q, data, dim, nil, Selection{})
	if vec.BatchDispatchTotal() != 0 {
		t.Fatal("cosine scan unexpectedly used batch kernels")
	}
}

// TestScanBlockedAllocs: with a caller-owned heap and the pooled distance
// buffer, a steady-state scan performs zero allocations.
func TestScanBlockedAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	dim := 24
	data := randBlock(r, 500*dim)
	q := randBlock(r, dim)
	h := topk.New(10)
	// Warm the buffer pool.
	ScanBlocked(h, vec.L2, q, data, dim, nil, Selection{})
	avg := testing.AllocsPerRun(100, func() {
		h.Reset()
		ScanBlocked(h, vec.L2, q, data, dim, nil, Selection{})
	})
	if avg > 0.5 {
		t.Fatalf("ScanBlocked allocates %.1f objects/op, want 0 (pooled buffer regressed?)", avg)
	}
}

// TestFilterIsBitsOnly guards the one filter representation: nothing in the
// index-level search API may carry a per-row callback beside Bits.
func TestFilterIsBitsOnly(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(SearchParams{}), reflect.TypeOf(Selection{})} {
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.Type.Kind() == reflect.Func {
				t.Errorf("%s.%s is func-typed: filters below core.execute are bitsets", typ.Name(), f.Name)
			}
		}
	}
}
