package vec

import "math"

// Blocked batch kernels. The pairwise kernels in kernels.go amortize nothing
// across rows: every distance pays the dispatch atomic loads, the length
// check and a function call. The batch kernels below process a whole
// contiguous row-major block per dispatch and, like a GEMM micro-kernel,
// register-block the computation: each step holds one query chunk in
// registers and streams batchRows data rows against it, so query loads are
// amortized batchRows× and the independent per-row accumulators provide the
// instruction-level parallelism that the multi-accumulator pairwise kernels
// get from extra accumulators. Tiers differ in the dim-chunk width (4/8/16),
// mirroring the SSE/AVX/AVX512 register widths they stand in for.
//
// Three kernel families:
//
//   - one-query batch: distances from one query to every row (flat scans,
//     IVF bucket scans, segment scans);
//   - bound batch: same, but with early abandonment — L2 partial sums are
//     monotone, so a row whose partial already exceeds the caller's bound
//     (the current top-k worst) is abandoned mid-row and reported as +Inf;
//   - query tile: every query of a group against one data block for the
//     cache-aware multi-query engine, the block staying cache-resident
//     across the queries (the blocking behind Eq. (1)); each tier's tile
//     runs its one-query batch kernel per query (tileOf).
//
// Every entry point of a tier scores a row in the same order as that
// tier's batch kernel, so a row's distance is a pure function of (query,
// row): the same whatever the block length, the row's offset in the block
// or the entry point (batch, bound, tile, gather). The bit-identity tests
// elsewhere (resident ≡ externalized IVF, tombstoned ≡ plain scans, tiered
// ≡ in-RAM) rely on it.

// batchRows is the register row-block of the one-query batch kernels.
const batchRows = 4

// abandonChunk is the dim granularity at which the bound kernels compare the
// partial sum against the caller's bound. Coarse enough that the check is
// noise, fine enough that a full heap prunes most of a 128-d row.
const abandonChunk = 32

func inf32() float32 { return float32(math.Inf(1)) }

// l2c4/ipc4/ipc8 are the chunk primitives the blocked kernels compose.
// They are sized to the gc inlining budget (l2c4 costs 68 of the 80-node
// allowance, ipc8 exactly 80): the compiler inlines them, so every chunk
// loop body below compiles to straight-line code. That matters because gc
// never unrolls loops — an inner `for k` loop over the chunk would pay a
// compare-and-branch per four multiplies and lose to the fully unrolled
// pairwise kernels it is supposed to beat.

func l2c4(x, y *[4]float32) float32 {
	d0 := x[0] - y[0]
	d1 := x[1] - y[1]
	d2 := x[2] - y[2]
	d3 := x[3] - y[3]
	return (d0*d0 + d1*d1) + (d2*d2 + d3*d3)
}

func ipc4(x, y *[4]float32) float32 {
	return (x[0]*y[0] + x[1]*y[1]) + (x[2]*y[2] + x[3]*y[3])
}

func ipc8(x, y *[8]float32) float32 {
	return (x[0]*y[0] + x[1]*y[1] + x[2]*y[2] + x[3]*y[3]) +
		(x[4]*y[4] + x[5]*y[5] + x[6]*y[6] + x[7]*y[7])
}

// blockRows returns rows i..i+3 of the n-row block data. Past the last row
// it repeats that row, so a short final block runs the same arithmetic on
// each row as a full block: a row's distance is a pure function of (query,
// row), whatever the block's length or the row's place in it.
func blockRows(data []float32, dim, n, i int) (r0, r1, r2, r3 []float32) {
	last := n - 1
	r0 = data[i*dim:][:dim]
	r1 = data[min(i+1, last)*dim:][:dim]
	r2 = data[min(i+2, last)*dim:][:dim]
	r3 = data[min(i+3, last)*dim:][:dim]
	return r0, r1, r2, r3
}

// putRows stores a block's four sums at out[i:], dropping those past row n.
func putRows(out []float32, n, i int, s0, s1, s2, s3 float32) {
	s := [batchRows]float32{s0, s1, s2, s3}
	copy(out[i:n], s[:])
}

// tileOf is a tier's query tile: its one-query batch kernel per query, so
// every (query, row) distance is the batch kernel's. The cache reuse the
// tile exists for happens at the caller's block granularity (the block
// stays resident across the query loop).
func tileOf(batch func(q, data []float32, dim int, out []float32)) func(qs, data []float32, dim, nq int, out []float32) {
	return func(qs, data []float32, dim, nq int, out []float32) {
		n := len(data) / dim
		if n == 0 {
			return
		}
		for qi := 0; qi < nq; qi++ {
			batch(qs[qi*dim:(qi+1)*dim], data, dim, out[qi*n:(qi+1)*n])
		}
	}
}

// ---------------------------------------------------------------------------
// Scalar tier (reference semantics for every other tier).

func l2BatchScalar(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i++ {
		out[i] = l2Scalar(q, data[i*dim:(i+1)*dim])
	}
}

func ipBatchScalar(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i++ {
		out[i] = ipScalar(q, data[i*dim:(i+1)*dim])
	}
}

// l2BoundScalar is the early-abandon reference: plain scalar accumulation
// with a bound check per abandonChunk dims. An abandoned row reports +Inf;
// NaN partial sums never satisfy s >= bound, so NaN rows complete and report
// NaN exactly like the plain kernels (the heap rejects NaN either way).
func l2BoundScalar(q, data []float32, dim int, bound float32, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		var s float32
		d := 0
		for d < dim {
			end := d + abandonChunk
			if end > dim {
				end = dim
			}
			for ; d < end; d++ {
				t := q[d] - row[d]
				s += t * t
			}
			if d < dim && s >= bound {
				s = inf32()
				break
			}
		}
		out[i] = s
	}
}

// ---------------------------------------------------------------------------
// 4-wide tier (SSE): 4 rows × 4-dim chunks.

func l2Batch4x4(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i += batchRows {
		r0, r1, r2, r3 := blockRows(data, dim, n, i)
		var s0, s1, s2, s3 float32
		d := 0
		for ; d+4 <= dim; d += 4 {
			x := (*[4]float32)(q[d : d+4])
			s0 += l2c4(x, (*[4]float32)(r0[d:d+4]))
			s1 += l2c4(x, (*[4]float32)(r1[d:d+4]))
			s2 += l2c4(x, (*[4]float32)(r2[d:d+4]))
			s3 += l2c4(x, (*[4]float32)(r3[d:d+4]))
		}
		for ; d < dim; d++ {
			xk := q[d]
			t0 := xk - r0[d]
			t1 := xk - r1[d]
			t2 := xk - r2[d]
			t3 := xk - r3[d]
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
		putRows(out, n, i, s0, s1, s2, s3)
	}
}

func ipBatch4x4(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i += batchRows {
		r0, r1, r2, r3 := blockRows(data, dim, n, i)
		var s0, s1, s2, s3 float32
		d := 0
		for ; d+4 <= dim; d += 4 {
			x := (*[4]float32)(q[d : d+4])
			s0 += ipc4(x, (*[4]float32)(r0[d:d+4]))
			s1 += ipc4(x, (*[4]float32)(r1[d:d+4]))
			s2 += ipc4(x, (*[4]float32)(r2[d:d+4]))
			s3 += ipc4(x, (*[4]float32)(r3[d:d+4]))
		}
		for ; d < dim; d++ {
			xk := q[d]
			s0 += xk * r0[d]
			s1 += xk * r1[d]
			s2 += xk * r2[d]
			s3 += xk * r3[d]
		}
		putRows(out, n, i, s0, s1, s2, s3)
	}
}

// ---------------------------------------------------------------------------
// 8-wide tier (AVX/AVX2): 4 rows × 8-dim chunks.

func l2Batch4x8(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i += batchRows {
		r0, r1, r2, r3 := blockRows(data, dim, n, i)
		var s0, s1, s2, s3 float32
		d := 0
		for ; d+8 <= dim; d += 8 {
			xa := (*[4]float32)(q[d : d+4])
			xb := (*[4]float32)(q[d+4 : d+8])
			s0 += l2c4(xa, (*[4]float32)(r0[d:d+4])) + l2c4(xb, (*[4]float32)(r0[d+4:d+8]))
			s1 += l2c4(xa, (*[4]float32)(r1[d:d+4])) + l2c4(xb, (*[4]float32)(r1[d+4:d+8]))
			s2 += l2c4(xa, (*[4]float32)(r2[d:d+4])) + l2c4(xb, (*[4]float32)(r2[d+4:d+8]))
			s3 += l2c4(xa, (*[4]float32)(r3[d:d+4])) + l2c4(xb, (*[4]float32)(r3[d+4:d+8]))
		}
		for ; d < dim; d++ {
			xk := q[d]
			t0 := xk - r0[d]
			t1 := xk - r1[d]
			t2 := xk - r2[d]
			t3 := xk - r3[d]
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
		putRows(out, n, i, s0, s1, s2, s3)
	}
}

func ipBatch4x8(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i += batchRows {
		r0, r1, r2, r3 := blockRows(data, dim, n, i)
		var s0, s1, s2, s3 float32
		d := 0
		for ; d+8 <= dim; d += 8 {
			x := (*[8]float32)(q[d : d+8])
			s0 += ipc8(x, (*[8]float32)(r0[d:d+8]))
			s1 += ipc8(x, (*[8]float32)(r1[d:d+8]))
			s2 += ipc8(x, (*[8]float32)(r2[d:d+8]))
			s3 += ipc8(x, (*[8]float32)(r3[d:d+8]))
		}
		for ; d < dim; d++ {
			xk := q[d]
			s0 += xk * r0[d]
			s1 += xk * r1[d]
			s2 += xk * r2[d]
			s3 += xk * r3[d]
		}
		putRows(out, n, i, s0, s1, s2, s3)
	}
}

// ---------------------------------------------------------------------------
// 16-wide tier (AVX512): 4 rows × 16-dim chunks, two accumulator banks per
// row so each row's dependency chain matches the pairwise 16-wide kernel.

func l2Batch4x16(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i += batchRows {
		r0, r1, r2, r3 := blockRows(data, dim, n, i)
		var s0a, s1a, s2a, s3a float32
		var s0b, s1b, s2b, s3b float32
		d := 0
		for ; d+16 <= dim; d += 16 {
			x := (*[16]float32)(q[d : d+16])
			y := (*[16]float32)(r0[d : d+16])
			e0 := x[0] - y[0]
			e1 := x[1] - y[1]
			e2 := x[2] - y[2]
			e3 := x[3] - y[3]
			e4 := x[4] - y[4]
			e5 := x[5] - y[5]
			e6 := x[6] - y[6]
			e7 := x[7] - y[7]
			e8 := x[8] - y[8]
			e9 := x[9] - y[9]
			e10 := x[10] - y[10]
			e11 := x[11] - y[11]
			e12 := x[12] - y[12]
			e13 := x[13] - y[13]
			e14 := x[14] - y[14]
			e15 := x[15] - y[15]
			s0a += (e0*e0 + e1*e1 + e2*e2 + e3*e3) + (e4*e4 + e5*e5 + e6*e6 + e7*e7)
			s0b += (e8*e8 + e9*e9 + e10*e10 + e11*e11) + (e12*e12 + e13*e13 + e14*e14 + e15*e15)
			y = (*[16]float32)(r1[d : d+16])
			e0 = x[0] - y[0]
			e1 = x[1] - y[1]
			e2 = x[2] - y[2]
			e3 = x[3] - y[3]
			e4 = x[4] - y[4]
			e5 = x[5] - y[5]
			e6 = x[6] - y[6]
			e7 = x[7] - y[7]
			e8 = x[8] - y[8]
			e9 = x[9] - y[9]
			e10 = x[10] - y[10]
			e11 = x[11] - y[11]
			e12 = x[12] - y[12]
			e13 = x[13] - y[13]
			e14 = x[14] - y[14]
			e15 = x[15] - y[15]
			s1a += (e0*e0 + e1*e1 + e2*e2 + e3*e3) + (e4*e4 + e5*e5 + e6*e6 + e7*e7)
			s1b += (e8*e8 + e9*e9 + e10*e10 + e11*e11) + (e12*e12 + e13*e13 + e14*e14 + e15*e15)
			y = (*[16]float32)(r2[d : d+16])
			e0 = x[0] - y[0]
			e1 = x[1] - y[1]
			e2 = x[2] - y[2]
			e3 = x[3] - y[3]
			e4 = x[4] - y[4]
			e5 = x[5] - y[5]
			e6 = x[6] - y[6]
			e7 = x[7] - y[7]
			e8 = x[8] - y[8]
			e9 = x[9] - y[9]
			e10 = x[10] - y[10]
			e11 = x[11] - y[11]
			e12 = x[12] - y[12]
			e13 = x[13] - y[13]
			e14 = x[14] - y[14]
			e15 = x[15] - y[15]
			s2a += (e0*e0 + e1*e1 + e2*e2 + e3*e3) + (e4*e4 + e5*e5 + e6*e6 + e7*e7)
			s2b += (e8*e8 + e9*e9 + e10*e10 + e11*e11) + (e12*e12 + e13*e13 + e14*e14 + e15*e15)
			y = (*[16]float32)(r3[d : d+16])
			e0 = x[0] - y[0]
			e1 = x[1] - y[1]
			e2 = x[2] - y[2]
			e3 = x[3] - y[3]
			e4 = x[4] - y[4]
			e5 = x[5] - y[5]
			e6 = x[6] - y[6]
			e7 = x[7] - y[7]
			e8 = x[8] - y[8]
			e9 = x[9] - y[9]
			e10 = x[10] - y[10]
			e11 = x[11] - y[11]
			e12 = x[12] - y[12]
			e13 = x[13] - y[13]
			e14 = x[14] - y[14]
			e15 = x[15] - y[15]
			s3a += (e0*e0 + e1*e1 + e2*e2 + e3*e3) + (e4*e4 + e5*e5 + e6*e6 + e7*e7)
			s3b += (e8*e8 + e9*e9 + e10*e10 + e11*e11) + (e12*e12 + e13*e13 + e14*e14 + e15*e15)
		}
		s0 := s0a + s0b
		s1 := s1a + s1b
		s2 := s2a + s2b
		s3 := s3a + s3b
		for ; d < dim; d++ {
			xk := q[d]
			t0 := xk - r0[d]
			t1 := xk - r1[d]
			t2 := xk - r2[d]
			t3 := xk - r3[d]
			s0 += t0 * t0
			s1 += t1 * t1
			s2 += t2 * t2
			s3 += t3 * t3
		}
		putRows(out, n, i, s0, s1, s2, s3)
	}
}

func ipBatch4x16(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	for i := 0; i < n; i += batchRows {
		r0, r1, r2, r3 := blockRows(data, dim, n, i)
		var s0a, s1a, s2a, s3a float32
		var s0b, s1b, s2b, s3b float32
		d := 0
		for ; d+16 <= dim; d += 16 {
			xa := (*[8]float32)(q[d : d+8])
			xb := (*[8]float32)(q[d+8 : d+16])
			s0a += ipc8(xa, (*[8]float32)(r0[d:d+8]))
			s0b += ipc8(xb, (*[8]float32)(r0[d+8:d+16]))
			s1a += ipc8(xa, (*[8]float32)(r1[d:d+8]))
			s1b += ipc8(xb, (*[8]float32)(r1[d+8:d+16]))
			s2a += ipc8(xa, (*[8]float32)(r2[d:d+8]))
			s2b += ipc8(xb, (*[8]float32)(r2[d+8:d+16]))
			s3a += ipc8(xa, (*[8]float32)(r3[d:d+8]))
			s3b += ipc8(xb, (*[8]float32)(r3[d+8:d+16]))
		}
		s0 := s0a + s0b
		s1 := s1a + s1b
		s2 := s2a + s2b
		s3 := s3a + s3b
		for ; d < dim; d++ {
			xk := q[d]
			s0 += xk * r0[d]
			s1 += xk * r1[d]
			s2 += xk * r2[d]
			s3 += xk * r3[d]
		}
		putRows(out, n, i, s0, s1, s2, s3)
	}
}

// ---------------------------------------------------------------------------
// Bound (early-abandon) kernels. Each adds a row's terms in exactly its
// tier's batch-kernel order, and before every abandonChunk-dim checkpoint
// compares the partial sum against the bound: all L2 terms are
// non-negative, so partial >= bound proves the full distance is too, and
// the row reports +Inf. A row that is not abandoned therefore gets its
// batch-kernel distance bit for bit. NaN partial sums never satisfy
// s >= bound, so NaN rows complete and report NaN like the batch kernels.

func l2Bound4(q, data []float32, dim int, bound float32, out []float32) {
	n := len(data) / dim
rows:
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		var s float32
		d := 0
		for ; d+abandonChunk <= dim; d += abandonChunk {
			x := (*[abandonChunk]float32)(q[d : d+abandonChunk])
			y := (*[abandonChunk]float32)(row[d : d+abandonChunk])
			s += l2c4((*[4]float32)(x[0:4]), (*[4]float32)(y[0:4]))
			s += l2c4((*[4]float32)(x[4:8]), (*[4]float32)(y[4:8]))
			s += l2c4((*[4]float32)(x[8:12]), (*[4]float32)(y[8:12]))
			s += l2c4((*[4]float32)(x[12:16]), (*[4]float32)(y[12:16]))
			s += l2c4((*[4]float32)(x[16:20]), (*[4]float32)(y[16:20]))
			s += l2c4((*[4]float32)(x[20:24]), (*[4]float32)(y[20:24]))
			s += l2c4((*[4]float32)(x[24:28]), (*[4]float32)(y[24:28]))
			s += l2c4((*[4]float32)(x[28:32]), (*[4]float32)(y[28:32]))
			if d+abandonChunk < dim && s >= bound {
				out[i] = inf32()
				continue rows
			}
		}
		for ; d+4 <= dim; d += 4 {
			s += l2c4((*[4]float32)(q[d:d+4]), (*[4]float32)(row[d:d+4]))
		}
		for ; d < dim; d++ {
			t := q[d] - row[d]
			s += t * t
		}
		out[i] = s
	}
}

func l2Bound8(q, data []float32, dim int, bound float32, out []float32) {
	n := len(data) / dim
rows:
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		var s float32
		d := 0
		for ; d+abandonChunk <= dim; d += abandonChunk {
			x := (*[abandonChunk]float32)(q[d : d+abandonChunk])
			y := (*[abandonChunk]float32)(row[d : d+abandonChunk])
			s += l2c4((*[4]float32)(x[0:4]), (*[4]float32)(y[0:4])) + l2c4((*[4]float32)(x[4:8]), (*[4]float32)(y[4:8]))
			s += l2c4((*[4]float32)(x[8:12]), (*[4]float32)(y[8:12])) + l2c4((*[4]float32)(x[12:16]), (*[4]float32)(y[12:16]))
			s += l2c4((*[4]float32)(x[16:20]), (*[4]float32)(y[16:20])) + l2c4((*[4]float32)(x[20:24]), (*[4]float32)(y[20:24]))
			s += l2c4((*[4]float32)(x[24:28]), (*[4]float32)(y[24:28])) + l2c4((*[4]float32)(x[28:32]), (*[4]float32)(y[28:32]))
			if d+abandonChunk < dim && s >= bound {
				out[i] = inf32()
				continue rows
			}
		}
		for ; d+8 <= dim; d += 8 {
			s += l2c4((*[4]float32)(q[d:d+4]), (*[4]float32)(row[d:d+4])) + l2c4((*[4]float32)(q[d+4:d+8]), (*[4]float32)(row[d+4:d+8]))
		}
		for ; d < dim; d++ {
			t := q[d] - row[d]
			s += t * t
		}
		out[i] = s
	}
}

// l2Bound16 keeps l2Batch4x16's two accumulator banks per row; the
// checkpoint compares their sum.
func l2Bound16(q, data []float32, dim int, bound float32, out []float32) {
	n := len(data) / dim
rows:
	for i := 0; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		var sa, sb float32
		d := 0
		for ; d+16 <= dim; d += 16 {
			if d > 0 && d%abandonChunk == 0 && sa+sb >= bound {
				out[i] = inf32()
				continue rows
			}
			x := (*[16]float32)(q[d : d+16])
			y := (*[16]float32)(row[d : d+16])
			e0 := x[0] - y[0]
			e1 := x[1] - y[1]
			e2 := x[2] - y[2]
			e3 := x[3] - y[3]
			e4 := x[4] - y[4]
			e5 := x[5] - y[5]
			e6 := x[6] - y[6]
			e7 := x[7] - y[7]
			e8 := x[8] - y[8]
			e9 := x[9] - y[9]
			e10 := x[10] - y[10]
			e11 := x[11] - y[11]
			e12 := x[12] - y[12]
			e13 := x[13] - y[13]
			e14 := x[14] - y[14]
			e15 := x[15] - y[15]
			sa += (e0*e0 + e1*e1 + e2*e2 + e3*e3) + (e4*e4 + e5*e5 + e6*e6 + e7*e7)
			sb += (e8*e8 + e9*e9 + e10*e10 + e11*e11) + (e12*e12 + e13*e13 + e14*e14 + e15*e15)
		}
		s := sa + sb
		for ; d < dim; d++ {
			t := q[d] - row[d]
			s += t * t
		}
		out[i] = s
	}
}
