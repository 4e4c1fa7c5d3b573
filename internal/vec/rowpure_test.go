package vec

import (
	"math"
	"math/rand"
	"testing"
)

// TestRowDistanceInvariance pins what the bit-identity tests elsewhere
// (resident ≡ externalized IVF, tombstoned ≡ plain scans, tiered ≡ in-RAM)
// rely on: on every tier, assembly or pure Go, a row's L2 and NegDot
// distance is a pure function of (query, row), with the row scored alone
// as the reference. It must come out bit-identical whatever the block
// length, the row's offset in the block, or the entry point — batch, bound
// (for rows below the bound), tile or gather.
func TestRowDistanceInvariance(t *testing.T) {
	const rows, nq = 300, 3
	levels := Levels()
	var ns []int
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 255, 256, rows)
	prev := CurrentLevel()
	defer SetLevel(prev)
	r := rand.New(rand.NewSource(49))
	for _, dim := range []int{3, 16, 32, 100, 128, 200} {
		data := randVec(r, rows*dim)
		queries := randVec(r, nq*dim)
		out := make([]float32, nq*rows)
		for _, l := range levels {
			SetLevel(l)
			// The reference: each row scored alone, as a one-row block.
			wantL2 := make([]float32, nq*rows)
			wantIP := make([]float32, nq*rows)
			for qi := 0; qi < nq; qi++ {
				q := queries[qi*dim : (qi+1)*dim]
				for i := 0; i < rows; i++ {
					row := data[i*dim : (i+1)*dim]
					L2SquaredBatch(q, row, dim, wantL2[qi*rows+i:])
					NegDotBatch(q, row, dim, wantIP[qi*rows+i:])
				}
			}
			check := func(entry string, qi, first int, gotL2, gotIP []float32) {
				t.Helper()
				for i := range gotL2 {
					w := qi*rows + first + i
					if math.Float32bits(gotL2[i]) != math.Float32bits(wantL2[w]) {
						t.Fatalf("%v dim %d %s query %d row %d: L2 %v, alone %v", l, dim, entry, qi, first+i, gotL2[i], wantL2[w])
					}
					if gotIP != nil && math.Float32bits(gotIP[i]) != math.Float32bits(wantIP[w]) {
						t.Fatalf("%v dim %d %s query %d row %d: NegDot %v, alone %v", l, dim, entry, qi, first+i, gotIP[i], wantIP[w])
					}
				}
			}
			outIP := make([]float32, nq*rows)
			for qi := 0; qi < nq; qi++ {
				q := queries[qi*dim : (qi+1)*dim]
				for _, n := range ns {
					for _, off := range []int{0, 1, 5, r.Intn(rows - n + 1), rows - n} {
						if off < 0 || off+n > rows {
							continue
						}
						block := data[off*dim : (off+n)*dim]
						L2SquaredBatch(q, block, dim, out[:n])
						NegDotBatch(q, block, dim, outIP[:n])
						check("batch", qi, off, out[:n], outIP[:n])
						L2SquaredBatchBound(q, block, dim, inf32(), out[:n])
						check("bound(+Inf)", qi, off, out[:n], nil)
					}
				}
				// A finite bound: rows below it stay exact.
				bound := medianOf(append([]float32(nil), wantL2[qi*rows:(qi+1)*rows]...))
				L2SquaredBatchBound(q, data, dim, bound, out[:rows])
				for i := 0; i < rows; i++ {
					if w := wantL2[qi*rows+i]; w < bound && math.Float32bits(out[i]) != math.Float32bits(w) {
						t.Fatalf("%v dim %d bound %v row %d: %v, alone %v", l, dim, bound, i, out[i], w)
					}
				}
				// Gather a scattered survivor list, out of row order.
				sel := r.Perm(rows)[:1+r.Intn(rows)]
				ids := make([]int32, len(sel))
				for i, s := range sel {
					ids[i] = int32(s)
				}
				L2SquaredGatherBound(q, data, dim, ids, inf32(), out, make([]float32, len(ids)*dim))
				NegDotGather(q, data, dim, ids, outIP, make([]float32, len(ids)*dim))
				for i, s := range sel {
					check("gather", qi, s, out[i:i+1], outIP[i:i+1])
				}
			}
			// The tile scores every query against a block at once.
			for _, n := range []int{1, 7, 9, 256, rows - 3} {
				off := rows - n
				block := data[off*dim : (off+n)*dim]
				L2SquaredTile(queries, block, dim, out[:nq*n])
				NegDotTile(queries, block, dim, outIP[:nq*n])
				for qi := 0; qi < nq; qi++ {
					check("tile", qi, off, out[qi*n:(qi+1)*n], outIP[qi*n:(qi+1)*n])
				}
			}
		}
	}
}
