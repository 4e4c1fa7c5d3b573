package vec

import (
	"math"
	"math/rand"
	"testing"
)

func TestGatherKernelsMatchPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{4, 16, 33, 128} {
		const n = 300
		data := make([]float32, n*dim)
		q := make([]float32, dim)
		for i := range data {
			data[i] = rng.Float32()
		}
		for i := range q {
			q[i] = rng.Float32()
		}
		// Scattered survivor list with duplicates-free random rows.
		var rows []int32
		for i := 0; i < n; i += 1 + rng.Intn(5) {
			rows = append(rows, int32(i))
		}
		out := make([]float32, len(rows))

		L2SquaredGatherBound(q, data, dim, rows, inf32(), out, make([]float32, len(rows)*dim))
		for i, r := range rows {
			want := L2Squared(q, data[int(r)*dim:(int(r)+1)*dim])
			if math.Abs(float64(out[i]-want)) > 1e-4*float64(1+want) {
				t.Fatalf("dim=%d L2 gather row %d: got %v want %v", dim, r, out[i], want)
			}
		}

		NegDotGather(q, data, dim, rows, out, make([]float32, len(rows)*dim))
		for i, r := range rows {
			want := -Dot(q, data[int(r)*dim:(int(r)+1)*dim])
			if math.Abs(float64(out[i]-want)) > 1e-4*(1+math.Abs(float64(want))) {
				t.Fatalf("dim=%d IP gather row %d: got %v want %v", dim, r, out[i], want)
			}
		}
	}
}

func TestGatherBoundAbandons(t *testing.T) {
	// dim must exceed abandonChunk so the bound kernel has a mid-row
	// checkpoint at which to abandon.
	const dim, n = 2 * abandonChunk, 64
	data := make([]float32, n*dim)
	q := make([]float32, dim)
	for i := range q {
		q[i] = 1
	}
	// Row 0 identical to q (distance 0), the rest far away.
	copy(data[:dim], q)
	for i := dim; i < len(data); i++ {
		data[i] = 100
	}
	rows := []int32{0, 5, 10, 63}
	out := make([]float32, len(rows))
	L2SquaredGatherBound(q, data, dim, rows, 1.0, out, make([]float32, len(rows)*dim))
	if out[0] != 0 {
		t.Fatalf("row 0 distance = %v, want 0", out[0])
	}
	// The bound contract: rows below bound are exact; rows at or past it
	// are either abandoned (+Inf) or exact — never a value below bound.
	exact := L2Squared(q, data[5*dim:6*dim])
	for i := 1; i < len(rows); i++ {
		if got := float64(out[i]); got < 1.0 {
			t.Fatalf("far row %d reported %v below bound", rows[i], out[i])
		} else if !math.IsInf(got, 1) && math.Abs(got-float64(exact)) > 1e-2*float64(exact) {
			t.Fatalf("far row %d neither abandoned nor exact: %v (exact %v)", rows[i], out[i], exact)
		}
	}
}

func TestGatherRoutesThroughDispatchTable(t *testing.T) {
	SetDispatchCounting(true)
	defer SetDispatchCounting(false)
	ResetDispatchCounts()

	const dim = 16
	data := make([]float32, 10*dim)
	q := make([]float32, dim)
	rows := []int32{1, 3, 7}
	out := make([]float32, len(rows))
	L2SquaredGatherBound(q, data, dim, rows, inf32(), out, make([]float32, len(rows)*dim))
	NegDotGather(q, data, dim, rows, out, make([]float32, len(rows)*dim))
	if got := BatchDispatchTotal(); got < 2 {
		t.Fatalf("gather kernels dispatched %d batch kernels, want >= 2 (must route through the dispatch table)", got)
	}
}

func TestGatherAllocs(t *testing.T) {
	const dim = 16
	data := make([]float32, 256*dim)
	q := make([]float32, dim)
	rows := make([]int32, 64)
	for i := range rows {
		rows[i] = int32(i * 3)
	}
	out := make([]float32, len(rows))
	scratch := make([]float32, len(rows)*dim)
	n := testing.AllocsPerRun(100, func() {
		L2SquaredGatherBound(q, data, dim, rows, inf32(), out, scratch)
	})
	if n > 0 {
		t.Fatalf("L2SquaredGatherBound allocs/op = %v, want 0", n)
	}
}
