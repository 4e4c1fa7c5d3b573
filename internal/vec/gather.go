package vec

// Gather kernels: the sparse half of bitset pushdown. When a filter leaves
// too few survivors in a block for in-place runs to pay off, the scan driver
// hands the survivor row list here; the rows are compacted into the
// caller's contiguous scratch block and then handed to the hooked batch
// kernels, so even a 1%-selectivity scan is one SIMD dispatch per block
// rather than one scalar distance per surviving row. Gathering lives inside internal/vec on
// purpose — the kerneldispatch analyzer guarantees callers cannot reach a
// per-tier kernel around the dispatch table, and keeping the copy next to
// the kernel keeps that guarantee airtight for the filtered path too.

// L2SquaredGatherBound computes the squared L2 distance from q to each row
// rows[i] of the row-major matrix data into out[i] (len(out) >= len(rows)),
// with the same early-abandonment contract as L2SquaredBatchBound: rows
// whose partial sum reaches bound are reported as +Inf. The rows are
// compacted into the caller's scratch (len >= len(rows)*dim) first.
func L2SquaredGatherBound(q, data []float32, dim int, rows []int32, bound float32, out, scratch []float32) {
	if len(rows) == 0 {
		return
	}
	buf := scratch[:len(rows)*dim]
	gatherRows(buf, data, dim, rows)
	L2SquaredBatchBound(q, buf, dim, bound, out)
}

// NegDotGather computes the negated inner product (distance form) of q with
// each row rows[i] of data into out[i], compacting the rows into scratch
// as L2SquaredGatherBound does.
func NegDotGather(q, data []float32, dim int, rows []int32, out, scratch []float32) {
	if len(rows) == 0 {
		return
	}
	buf := scratch[:len(rows)*dim]
	gatherRows(buf, data, dim, rows)
	NegDotBatch(q, buf, dim, out[:len(rows)])
}

// gatherRows compacts the selected rows of data into dst, front to back.
func gatherRows(dst, data []float32, dim int, rows []int32) {
	for i, r := range rows {
		copy(dst[i*dim:(i+1)*dim], data[int(r)*dim:int(r+1)*dim])
	}
}
