package vec

// The tier hooks below run one kernel of an explicit tier, bypassing the
// dispatch table and its counters, so the tests and benchmarks can hold
// every tier to the same answers and time them side by side. DotBatch is
// the hooked dot batch entry the daemon reaches only negated (NegDotBatch).

// L2SquaredAt computes L2Squared with an explicit tier, bypassing the hook.
// Benchmarks use it to compare tiers side by side (Fig. 12).
func L2SquaredAt(l Level, a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	return kernels[l].l2(a, b)
}

// DotAt computes Dot with an explicit tier, bypassing the hook.
func DotAt(l Level, a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vec: dimension mismatch")
	}
	return kernels[l].ip(a, b)
}

// DotBatch computes the inner product of q with every row of data into out.
func DotBatch(q, data []float32, dim int, out []float32) {
	countCurrentBatch()
	active.Load().ipb(q, data, dim, out)
}

// DotBatchAt runs the dot batch kernel of an explicit tier.
func DotBatchAt(l Level, q, data []float32, dim int, out []float32) {
	kernels[l].ipb(q, data, dim, out)
}

// L2SquaredBatchBoundAt runs the bound kernel of an explicit tier.
func L2SquaredBatchBoundAt(l Level, q, data []float32, dim int, bound float32, out []float32) {
	kernels[l].l2bb(q, data, dim, bound, out)
}

// L2SquaredTileAt runs the tile kernel of an explicit tier.
func L2SquaredTileAt(l Level, queries, data []float32, dim int, out []float32) {
	kernels[l].l2t(queries, data, dim, len(queries)/dim, out)
}

// DotTileAt runs the dot tile kernel of an explicit tier.
func DotTileAt(l Level, queries, data []float32, dim int, out []float32) {
	kernels[l].ipt(queries, data, dim, len(queries)/dim, out)
}

// L2PanelMinAt runs the panel kernel of an explicit tier (tests,
// benchmarks).
func L2PanelMinAt(l Level, x []float32, p *Panels, out []PanelMin) {
	panelMin(kernels[l].l2p, x, p, out)
}

// HeadListAt runs the head list kernel of an explicit tier over n rows of
// head panels.
func HeadListAt(l Level, uh []int16, ts []int32, panels []uint8, n int, live []int32) int {
	return kernels[l].hl(uh, ts, panels, n, live)
}

// CodeL2TileAt runs the code tile kernel of an explicit tier.
func CodeL2TileAt(l Level, us []int16, codes []uint8, dim int, out []int32) {
	kernels[l].cdt(us, codes, dim, len(us)/dim, out)
}

// EncodeCodesAt is EncodeCodes on an explicit tier (tests, benchmarks).
func EncodeCodesAt(l Level, data []float32, dim int) *Codes {
	return encodeWith(&kernels[l], data, dim)
}
