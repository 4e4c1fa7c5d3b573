package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Kernel microbenchmarks at the Fig. 8 operating point (dim 128). The
// pairwise loop is the pre-blocking baseline every batch kernel is
// measured against; internal/index's BenchmarkScanBlocked times the same
// shape as a whole n=100k scan.

func benchData(n, dim int) (q, data []float32) {
	r := rand.New(rand.NewSource(71))
	q = make([]float32, dim)
	data = make([]float32, n*dim)
	for i := range q {
		q[i] = float32(r.NormFloat64())
	}
	for i := range data {
		data[i] = float32(r.NormFloat64())
	}
	return q, data
}

const benchDim = 128
const benchRowsN = 4096

func BenchmarkL2Pairwise(b *testing.B) {
	q, data := benchData(benchRowsN, benchDim)
	out := make([]float32, benchRowsN)
	b.SetBytes(int64(benchRowsN * benchDim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < benchRowsN; r++ {
			out[r] = L2Squared(q, data[r*benchDim:(r+1)*benchDim])
		}
	}
}

// batchShapes are the layer cells of the one-query batch kernels: one
// 256-row IVF bucket, cache-resident, and scan.flat's 65,536×128 segment
// (32 MiB, past the caches), each at dims 32, 64 and 128.
var batchShapes = []struct{ dim, rows int }{
	{32, 256}, {64, 256}, {128, 256},
	{32, 65536}, {64, 65536}, {128, 65536},
}

func benchBatch(b *testing.B, kernel func(q, data []float32, dim int, out []float32)) {
	for _, s := range batchShapes {
		b.Run(fmt.Sprintf("dim=%d/rows=%d", s.dim, s.rows), func(b *testing.B) {
			q, data := benchData(s.rows, s.dim)
			out := make([]float32, s.rows)
			b.SetBytes(int64(s.rows * s.dim * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(q, data, s.dim, out)
			}
		})
	}
}

func BenchmarkL2Batch(b *testing.B) { benchBatch(b, L2SquaredBatch) }

func BenchmarkL2BatchBound(b *testing.B) {
	q, data := benchData(benchRowsN, benchDim)
	out := make([]float32, benchRowsN)
	// A bound at roughly the distance median: about half the rows abandon.
	L2SquaredBatch(q, data, benchDim, out)
	cp := append([]float32(nil), out...)
	bound := medianOf(cp)
	b.SetBytes(int64(benchRowsN * benchDim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2SquaredBatchBound(q, data, benchDim, bound, out)
	}
}

// BenchmarkL2BatchBoundTight is the scan steady state: once a top-k heap
// is full its worst distance is near the distribution's low tail, so
// nearly every row abandons at the first abandonChunk checkpoint.
func BenchmarkL2BatchBoundTight(b *testing.B) {
	q, data := benchData(benchRowsN, benchDim)
	out := make([]float32, benchRowsN)
	L2SquaredBatch(q, data, benchDim, out)
	min := out[0]
	for _, v := range out {
		if v < min {
			min = v
		}
	}
	bound := min * 1.1
	b.SetBytes(int64(benchRowsN * benchDim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2SquaredBatchBound(q, data, benchDim, bound, out)
	}
}

func BenchmarkDotBatch(b *testing.B) { benchBatch(b, DotBatch) }

func BenchmarkL2Tile4Queries(b *testing.B) {
	_, data := benchData(benchRowsN, benchDim)
	qs, _ := benchData(0, 4*benchDim)
	out := make([]float32, 4*benchRowsN)
	b.SetBytes(int64(4 * benchRowsN * benchDim * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2SquaredTile(qs, data, benchDim, out)
	}
}

func medianOf(v []float32) float32 {
	// Selection by repeated halving is overkill for a benchmark setup;
	// a simple sort-free nth-element via counting against a pivot sweep.
	lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	for iter := 0; iter < 30; iter++ {
		mid := (lo + hi) / 2
		n := 0
		for _, x := range v {
			if x <= mid {
				n++
			}
		}
		if n < len(v)/2 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// BenchmarkPanelMin times the panel kernel of each tier on one 64-row block
// against a 256-centroid codebook at dim 64 (k-means' assignment step at
// the dim-64 IVF build's shape), beside the hooked tile kernel on the same
// block: the distance tile the panel kernel replaces, before its argmin.
func BenchmarkPanelMin(b *testing.B) {
	const rows, k, dim = 64, 256, 64
	_, x := benchData(rows, dim)
	_, codebook := benchData(k, dim)
	p := NewPanels(codebook, dim)
	out := make([]PanelMin, rows)
	for _, l := range Levels() {
		b.Run(l.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				L2PanelMinAt(l, x, p, out)
			}
		})
	}
	b.Run("tile", func(b *testing.B) {
		tile := make([]float32, rows*k)
		for i := 0; i < b.N; i++ {
			L2SquaredTile(x, codebook, dim, tile)
		}
	})
}
