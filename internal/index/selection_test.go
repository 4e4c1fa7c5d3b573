package index

import (
	"math/rand"
	"sort"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// bitsetFor builds a bitset over n positions from a predicate on the
// position (identity Pos) or on pos[i] when a mapping is used.
func bitsetFor(n int, keep func(int) bool) *bitset.Bitset {
	b := bitset.New(n)
	for i := 0; i < n; i++ {
		if keep(i) {
			b.Set(i)
		}
	}
	return b
}

func sameResults(t *testing.T, tag string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID && !closeEnough(got[i].Distance, want[i].Distance) {
			t.Fatalf("%s rank %d: %v, want %v", tag, i, got[i], want[i])
		}
	}
}

// TestScanBlockedBitsetMatchesCallback: the pushed-bitset path — in every
// mode — returns exactly what the per-row reference filter returns, for
// clustered and scattered bits, both metrics, with and without a position
// mapping, across selectivities from sub-1% to ~100%.
func TestScanBlockedBitsetMatchesCallback(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	const dim, n, k = 24, 1000, 17
	data := randBlock(r, n*dim)
	q := randBlock(r, dim)
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)*3 + 1
	}
	shapes := map[string]func(int) bool{
		"scatter_50":  func(i int) bool { return i%2 == 0 },
		"scatter_10":  func(i int) bool { return i%10 == 3 },
		"scatter_0.5": func(i int) bool { return i%200 == 7 },
		"cluster":     func(i int) bool { return (i >= 100 && i < 400) || (i >= 700 && i < 703) },
		"all":         func(int) bool { return true },
		"none":        func(int) bool { return false },
		"word_edges":  func(i int) bool { return i%64 == 0 || i%64 == 63 },
	}
	for _, metric := range []vec.Metric{vec.L2, vec.IP} {
		for name, keep := range shapes {
			bits := bitsetFor(n, keep)
			want := refHeap(metric, q, data, dim, k, ids, func(id int64) bool { return keep(int((id - 1) / 3)) })
			for _, mode := range []FilterMode{FilterAuto, FilterDense, FilterSparse} {
				h := topk.New(k)
				ScanBlocked(h, metric, q, data, dim, ids, Selection{Bits: bits, Force: mode})
				sameResults(t, name, h.Results(), want)
			}
		}
	}
}

// TestScanBlockedBitsetWithPos: IVF-style scans test bits through a
// position mapping; results must match filtering by the mapped position.
func TestScanBlockedBitsetWithPos(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	const dim, n, k = 16, 500, 10
	data := randBlock(r, n*dim)
	q := randBlock(r, dim)
	// Simulate a bucket holding a shuffled subset of a 2000-row build.
	pos := make([]int32, n)
	perm := r.Perm(2000)
	for i := range pos {
		pos[i] = int32(perm[i])
	}
	bits := bitsetFor(2000, func(p int) bool { return p%3 == 0 })
	want := refHeap(vec.L2, q, data, dim, k, nil, func(id int64) bool { return int(pos[id])%3 == 0 })
	for _, mode := range []FilterMode{FilterAuto, FilterDense, FilterSparse} {
		h := topk.New(k)
		ScanBlocked(h, vec.L2, q, data, dim, nil, Selection{Bits: bits, Pos: pos, Force: mode})
		sameResults(t, "pos", h.Results(), want)
	}
}

// TestScanBlockedBitsetPosSorted: with build-order (sorted) positions the
// dense scan may skip whole blocks whose position span holds no set bit —
// results must still match the per-position reference exactly, including
// when the filter is correlated with position (the case the skip targets).
func TestScanBlockedBitsetPosSorted(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	const dim, n, k, build = 16, 500, 10, 2000
	data := randBlock(r, n*dim)
	q := randBlock(r, dim)
	// A sorted subset of the build, as IVF buckets carry.
	perm := r.Perm(build)[:n]
	sort.Ints(perm)
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = int32(perm[i])
	}
	for name, keep := range map[string]func(int) bool{
		"correlated":   func(p int) bool { return p < build/2 }, // front half: back blocks all-excluded
		"scattered":    func(p int) bool { return p%3 == 0 },
		"empty":        func(p int) bool { return false },
		"tail-cluster": func(p int) bool { return p >= build-100 },
	} {
		bits := bitsetFor(build, keep)
		want := refHeap(vec.L2, q, data, dim, k, nil, func(id int64) bool { return keep(int(pos[id])) })
		for _, mode := range []FilterMode{FilterAuto, FilterDense, FilterSparse} {
			h := topk.New(k)
			ScanBlocked(h, vec.L2, q, data, dim, nil, Selection{Bits: bits, Pos: pos, PosSorted: true, Force: mode})
			sameResults(t, "sorted-pos/"+name, h.Results(), want)
		}
	}
}

// TestScanBlockedBitsetUsesBatchKernels: the whole point of pushdown — a
// bitset-filtered scan must still dispatch through the hooked batch
// kernels, in dense and in sparse mode, for both batchable metrics.
func TestScanBlockedBitsetUsesBatchKernels(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	const dim, n = 32, 600
	data := randBlock(r, n*dim)
	q := randBlock(r, dim)
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	cases := []struct {
		name string
		keep func(int) bool
		mode FilterMode
	}{
		{"dense_runs", func(i int) bool { return i < 300 }, FilterDense},
		{"dense_frag", func(i int) bool { return i%2 == 0 }, FilterDense},
		{"sparse", func(i int) bool { return i%100 == 0 }, FilterSparse},
	}
	for _, metric := range []vec.Metric{vec.L2, vec.IP} {
		for _, c := range cases {
			vec.ResetDispatchCounts()
			h := topk.New(5)
			ScanBlocked(h, metric, q, data, dim, nil, Selection{Bits: bitsetFor(n, c.keep), Force: c.mode})
			if got := vec.BatchDispatchTotal(); got == 0 {
				t.Fatalf("%v/%s: bitset scan made no batch-kernel dispatches", metric, c.name)
			}
		}
	}
}

// TestScanBlockedBitsetAllocs: steady-state bitset scans must stay on
// pooled scratch in both modes.
func TestScanBlockedBitsetAllocs(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops 25% of Puts on the floor under the race
		// detector (sync/pool.go), and the sparse path cycles ~4 pooled
		// buffers per scan — the refills read as ~2 allocs/op with the
		// pooling working exactly as designed.
		t.Skip("pool Puts are randomly dropped under -race; alloc pin is meaningless")
	}
	r := rand.New(rand.NewSource(59))
	const dim, n = 24, 500
	data := randBlock(r, n*dim)
	q := randBlock(r, dim)
	bits := bitsetFor(n, func(i int) bool { return i%7 != 0 })
	h := topk.New(10)
	for _, mode := range []FilterMode{FilterDense, FilterSparse} {
		// Warm the pools.
		h.Reset()
		ScanBlocked(h, vec.L2, q, data, dim, nil, Selection{Bits: bits, Force: mode})
		avg := testing.AllocsPerRun(100, func() {
			h.Reset()
			ScanBlocked(h, vec.L2, q, data, dim, nil, Selection{Bits: bits, Force: mode})
		})
		if avg > 0.5 {
			t.Fatalf("mode %d: %v allocs/op, want 0", mode, avg)
		}
	}
}

func TestChooseFilterMode(t *testing.T) {
	if ChooseFilterMode(500, 1000) != FilterDense {
		t.Fatal("50% selectivity must choose dense")
	}
	if ChooseFilterMode(1, 1000) != FilterSparse {
		t.Fatal("0.1% selectivity must choose sparse")
	}
	// The boundary follows DenseSelectivity exactly.
	at := int(DenseSelectivity * 1000)
	if ChooseFilterMode(at, 1000) != FilterDense {
		t.Fatal("selectivity == threshold must choose dense")
	}
	if ChooseFilterMode(at-1, 1000) != FilterSparse {
		t.Fatal("selectivity just under threshold must choose sparse")
	}
	if FilterModeName(0.5) != "dense" || FilterModeName(0.001) != "sparse" {
		t.Fatal("FilterModeName inconsistent with threshold")
	}
}
