//go:build !purego

package vec

// Assembly code-grid kernels (codes_amd64.s): the AVX-512BW tier, with
// VPDPWSSD where AVX512-VNNI is present, and the AVX2 tier. Each wrapper
// runs the assembly over the rows and dims it covers and finishes the
// rest with the pure-Go kernels, so every tier returns the same S.

//go:noescape
func codeRowsZV(u *int16, codes *uint8, out *int32, dim, stride, n int)

//go:noescape
func codeRowsZM(u *int16, codes *uint8, out *int32, dim, stride, n int)

//go:noescape
func codeQuadZV(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)

//go:noescape
func codeQuadZM(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)

//go:noescape
func codeRowsY(u *int16, codes *uint8, out *int32, dim, stride, n int)

//go:noescape
func codeQuadY(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)

//go:noescape
func minMaxZ(data *float32, n int) (lo, hi, bad float32)

//go:noescape
func encodeZ(data *float32, out *uint8, n int, lo, inv float32)

//go:noescape
func minMaxY(data *float32, n int) (lo, hi, bad float32)

//go:noescape
func encodeY(data *float32, out *uint8, n int, lo, inv float32)

// haveAVX512BW / haveVNNI: the byte/word and VNNI extensions the AVX-512
// code kernels need, on top of haveAVX512.
var haveAVX512BW, haveVNNI = detectCodeISA()

func detectCodeISA() (bw, vnni bool) {
	if !haveAVX512 {
		return false, false
	}
	_, b7, c7, _ := cpuidex(7, 0)
	const (
		avx512bwBit   = 1 << 30
		avx512vnniBit = 1 << 11
	)
	bw = b7&avx512bwBit != 0
	return bw, bw && c7&avx512vnniBit != 0
}

// codeASM is one ISA's pair of code kernels and its dim chunk.
type codeASM struct {
	rows  func(u *int16, codes *uint8, out *int32, dim, stride, n int)
	quad  func(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)
	chunk int
}

// tile returns the tier's code tile kernel: queries in fours through the
// quad kernel, the rest one by one through the rows kernel, then the
// rows past a multiple of four and the dims past a multiple of the chunk
// in Go.
func (a codeASM) tile() func(us []int16, codes []uint8, dim, nq int, out []int32) {
	return func(us []int16, codes []uint8, dim, nq int, out []int32) {
		n := len(codes) / dim
		head := dim &^ (a.chunk - 1)
		if n == 0 || head == 0 {
			codeTileGo(us, codes, dim, nq, out)
			return
		}
		_, _ = us[nq*dim-1], out[nq*n-1] // the assembly trusts these lengths
		q := 0
		for ; q+4 <= nq; q += 4 {
			a.quad(&us[q*dim], 2*dim, &codes[0], &out[q*n], 4*n, head, dim, n)
		}
		n4 := n &^ 3
		for ; q < nq; q++ {
			u, o := us[q*dim:(q+1)*dim], out[q*n:(q+1)*n]
			if n4 > 0 {
				a.rows(&u[0], &codes[0], &o[0], head, dim, n4)
			}
			for i := n4; i < n; i++ {
				o[i] = codeL2Go(u[:head], codes[i*dim:i*dim+head])
			}
		}
		if head == dim {
			return
		}
		for q := 0; q < nq; q++ {
			u := us[q*dim+head : (q+1)*dim]
			o := out[q*n : (q+1)*n]
			for i := range o {
				o[i] += codeL2Go(u, codes[i*dim+head:(i+1)*dim])
			}
		}
	}
}

// minMaxOf / encodeOf wrap an assembly min/max or encode kernel that
// covers a multiple of width values; Go covers the rest.
func minMaxOf(kernel func(data *float32, n int) (lo, hi, bad float32), width int) func([]float32) (float32, float32, bool) {
	return func(data []float32) (float32, float32, bool) {
		head := len(data) &^ (width - 1)
		if head == 0 {
			return minMaxGo(data)
		}
		lo, hi, bad := kernel(&data[0], head)
		if bad != 0 {
			return 0, 0, false
		}
		if head < len(data) {
			tlo, thi, ok := minMaxGo(data[head:])
			if !ok {
				return 0, 0, false
			}
			lo, hi = min(lo, tlo), max(hi, thi)
		}
		return lo, hi, true
	}
}

func encodeOf(kernel func(data *float32, out *uint8, n int, lo, inv float32), width int) func([]float32, float32, float32, []uint8) {
	return func(data []float32, lo, inv float32, out []uint8) {
		head := len(data) &^ (width - 1)
		if head > 0 {
			_ = out[head-1]
			kernel(&data[0], &out[0], head, lo, inv)
		}
		encodeGo(data[head:], lo, inv, out[head:])
	}
}

// codeTileVariants returns every assembly code tile the CPU can run, by
// name, whichever one the tiers hold: on a VNNI host the AVX-512 tier
// holds ZV, so tests reach ZM (the tile of AVX-512 hosts without VNNI)
// only through here. VPDPWSSD's fused square-accumulate makes ZV's
// four-query tile about 20 % faster than ZM's VPMADDWD + VPADDD
// (BenchmarkCodeL2Tile's shape, 65,536 × 128).
func codeTileVariants() map[string]func(us []int16, codes []uint8, dim, nq int, out []int32) {
	v := map[string]func(us []int16, codes []uint8, dim, nq int, out []int32){}
	if haveAVX2FMA {
		v["Y"] = codeASM{codeRowsY, codeQuadY, 16}.tile()
	}
	if haveAVX512BW {
		v["ZM"] = codeASM{codeRowsZM, codeQuadZM, 32}.tile()
	}
	if haveVNNI {
		v["ZV"] = codeASM{codeRowsZV, codeQuadZV, 32}.tile()
	}
	return v
}

// installCodeKernels puts the assembly code-grid kernels into the tiers
// installASMKernels gave vector code.
func installCodeKernels() {
	var z codeASM
	switch {
	case haveVNNI:
		z = codeASM{codeRowsZV, codeQuadZV, 32}
	case haveAVX512BW:
		z = codeASM{codeRowsZM, codeQuadZM, 32}
	}
	y := codeASM{codeRowsY, codeQuadY, 16}
	if haveAVX2FMA {
		kernels[LevelAVX2].cdt = y.tile()
		kernels[LevelAVX2].mm = minMaxOf(minMaxY, 8)
		kernels[LevelAVX2].enc = encodeOf(encodeY, 16)
	}
	switch {
	case z.rows != nil:
		kernels[LevelAVX512].cdt = z.tile()
		kernels[LevelAVX512].mm = minMaxOf(minMaxZ, 64)
		kernels[LevelAVX512].enc = encodeOf(encodeZ, 64)
	case haveAVX2FMA:
		kernels[LevelAVX512].cdt = y.tile()
		kernels[LevelAVX512].mm = minMaxOf(minMaxY, 8)
		kernels[LevelAVX512].enc = encodeOf(encodeY, 16)
	}
}
