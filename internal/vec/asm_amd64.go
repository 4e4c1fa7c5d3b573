//go:build !purego

package vec

import "vectordb/internal/bufferpool"

// Real SIMD on amd64. The paper's Sec. 3.2.2 compiles every similarity
// function four times (SSE/AVX/AVX2/AVX512) and hooks the variant matching
// the host's CPUID flags at startup. This file is that mechanism for the
// batch entry points: hand-written AVX2+FMA and AVX-512 kernels (see
// asm_amd64.s) are installed into the kernel table for the AVX2/AVX512
// tiers when — and only when — CPUID and XCR0 report the host supports
// them. Every other tier, and every other architecture, keeps the
// register-blocked pure-Go kernels, which double as the reference
// implementation the asm is fuzz-tested against.
//
// The pairwise (single-distance) kernels intentionally stay in Go: a call
// per row cannot amortize the vector setup/reduction anyway, which is the
// whole argument for blocked scans.
//
// The purego build tag leaves all of this out (asm_other.go instead), so
// every tier runs the pure-Go kernels on amd64 too.

//go:noescape
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func l2BatchFMA(q, data, out *float32, dim, n int)

//go:noescape
func ipBatchFMA(q, data, out *float32, dim, n int)

//go:noescape
func l2BatchZ(q, data, out *float32, dim, n int)

//go:noescape
func ipBatchZ(q, data, out *float32, dim, n int)

//go:noescape
func l2PanelFMA(x, cols, norms *float32, out *PanelMin, dim, rows, panels, first int)

//go:noescape
func l2PanelZ(x, cols, norms *float32, out *PanelMin, dim, rows, panels, first int)

// haveAVX2FMA / haveAVX512 report actual host support (instruction sets
// present and the OS saving the extended register state).
var haveAVX2FMA, haveAVX512 = detectx86()

func detectx86() (avx2fma, avx512 bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 || c1&fmaBit == 0 {
		return false, false
	}
	xlo, _ := xgetbv0()
	if xlo&0x06 != 0x06 { // XMM + YMM state enabled in XCR0
		return false, false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
	)
	avx2fma = b7&avx2Bit != 0
	avx512 = b7&avx512fBit != 0 && xlo&0xe0 == 0xe0 // opmask + ZMM state
	return avx2fma, avx512
}

// installASMKernels swaps the SIMD batch kernels into the tier table for
// the tiers the host can actually run. Called from the package init before
// the first SetLevel, so both the hooked path and the explicit At-variants
// (and with them every tier-equivalence test) see the asm kernels.
func installASMKernels() {
	installCodeKernels()
	if haveAVX2FMA {
		kernels[LevelAVX2].l2b = l2BatchAVX2
		kernels[LevelAVX2].ipb = ipBatchAVX2
		kernels[LevelAVX2].l2bb = l2BoundAVX2
		kernels[LevelAVX2].l2t = tileOf(l2BatchAVX2)
		kernels[LevelAVX2].ipt = tileOf(ipBatchAVX2)
		kernels[LevelAVX2].l2p = l2PanelAVX2
	}
	switch {
	case haveAVX512:
		kernels[LevelAVX512].l2b = l2BatchAVX512
		kernels[LevelAVX512].ipb = ipBatchAVX512
		kernels[LevelAVX512].l2bb = l2BoundAVX512
		kernels[LevelAVX512].l2t = tileOf(l2BatchAVX512)
		kernels[LevelAVX512].ipt = tileOf(ipBatchAVX512)
		kernels[LevelAVX512].l2p = l2PanelAVX512
	case haveAVX2FMA:
		// Widest-tier requests on an AVX2-only host still get vector code.
		kernels[LevelAVX512].l2b = l2BatchAVX2
		kernels[LevelAVX512].ipb = ipBatchAVX2
		kernels[LevelAVX512].l2bb = l2BoundAVX2
		kernels[LevelAVX512].l2t = tileOf(l2BatchAVX2)
		kernels[LevelAVX512].ipt = tileOf(ipBatchAVX2)
		kernels[LevelAVX512].l2p = l2PanelAVX2
	}
}

// Vectorized reports whether tier l runs the assembly batch kernels on
// this host (installASMKernels); every other tier runs the pure-Go ones.
func Vectorized(l Level) bool {
	switch l {
	case LevelAVX512:
		return haveAVX512 || haveAVX2FMA
	case LevelAVX2:
		return haveAVX2FMA
	}
	return false
}

// bestLevelForHost maps the detected features to a dispatch tier.
func bestLevelForHost() Level {
	switch {
	case haveAVX512:
		return LevelAVX512
	case haveAVX2FMA:
		return LevelAVX2
	default:
		// Pre-AVX2 x86: the pure-Go 8-wide tier is safe everywhere.
		return LevelAVX
	}
}

func l2BatchAVX2(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	if n == 0 {
		return
	}
	_, _ = q[dim-1], out[n-1] // bounds hints; the asm trusts these lengths
	l2BatchFMA(&q[0], &data[0], &out[0], dim, n)
}

func ipBatchAVX2(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	if n == 0 {
		return
	}
	_, _ = q[dim-1], out[n-1]
	ipBatchFMA(&q[0], &data[0], &out[0], dim, n)
}

func l2BatchAVX512(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	if n == 0 {
		return
	}
	_, _ = q[dim-1], out[n-1]
	l2BatchZ(&q[0], &data[0], &out[0], dim, n)
}

func ipBatchAVX512(q, data []float32, dim int, out []float32) {
	n := len(data) / dim
	if n == 0 {
		return
	}
	_, _ = q[dim-1], out[n-1]
	ipBatchZ(&q[0], &data[0], &out[0], dim, n)
}

// l2BoundAVX2/l2BoundAVX512 satisfy the bound-kernel contract (rows below
// the bound exact, rows at or above it reported >= bound) by computing
// every row exactly: with FMA vectors a full 128-dim row costs less than
// the scalar early-abandon bookkeeping, so abandonment only pays on the
// pure-Go tiers, which keep it.
func l2BoundAVX2(q, data []float32, dim int, _ float32, out []float32) {
	l2BatchAVX2(q, data, dim, out)
}

func l2BoundAVX512(q, data []float32, dim int, _ float32, out []float32) {
	l2BatchAVX512(q, data, dim, out)
}

// panelChunk is the codebook bytes one panel-kernel call sweeps: small
// enough that the chunk stays in L1 while every row group of the block
// passes over it, instead of each group streaming the whole codebook from
// L2. The rows' PanelMin carry over from chunk to chunk in out.
const panelChunk = 16 << 10

// panelSweep runs an assembly panel kernel over the block in codebook
// chunks of an even number of panels (l2PanelZ sweeps panels in pairs).
// The kernels take rows four at a time; the last one to three rows run as
// a zero-padded group of four in scratch, their results copied back.
func panelSweep(kernel func(x, cols, norms *float32, out *PanelMin, dim, rows, panels, first int), x []float32, p *Panels, out []PanelMin) {
	dim := p.Dim
	panelFloats := dim * PanelWidth
	per := max(panelChunk/(4*panelFloats), 2) &^ 1
	n4 := len(out) &^ 3
	var pad []float32
	var st [4]PanelMin
	tail := len(out) - n4
	if tail > 0 {
		buf := bufferpool.GetFloats(4 * dim)
		defer bufferpool.PutFloats(buf)
		pad = (*buf)[:4*dim]
		clear(pad[copy(pad, x[n4*dim:]):])
		copy(st[:], out[n4:])
	}
	np := len(p.norms) / PanelWidth
	for q := 0; q < np; q += per {
		m := min(per, np-q)
		cols, norms := &p.cols[q*panelFloats], &p.norms[q*PanelWidth]
		if n4 > 0 {
			_ = x[n4*dim-1] // the assembly trusts these lengths
			kernel(&x[0], cols, norms, &out[0], dim, n4, m, q*PanelWidth)
		}
		if tail > 0 {
			kernel(&pad[0], cols, norms, &st[0], dim, 4, m, q*PanelWidth)
		}
	}
	copy(out[n4:], st[:tail])
}

func l2PanelAVX512(x []float32, p *Panels, out []PanelMin) { panelSweep(l2PanelZ, x, p, out) }

func l2PanelAVX2(x []float32, p *Panels, out []PanelMin) { panelSweep(l2PanelFMA, x, p, out) }
