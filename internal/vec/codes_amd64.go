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
func headListZV(uh *int16, ts *int32, m int, panels *uint8, np int, live *int32) int

//go:noescape
func headListZM(uh *int16, ts *int32, m int, panels *uint8, np int, live *int32) int

//go:noescape
func headListY(uh *int16, ts *int32, m int, panels *uint8, np int, live *int32) int

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

// codeASM is one ISA's code kernels, its dim chunk, and whether the CPU
// runs them.
type codeASM struct {
	rows  func(u *int16, codes *uint8, out *int32, dim, stride, n int)
	quad  func(u *int16, ustride int, codes *uint8, out *int32, ostride, dim, stride, n int)
	list  func(uh *int16, ts *int32, m int, panels *uint8, np int, live *int32) int
	chunk int
	ok    bool
}

// install puts the tier's code tile and head list into ks.
func (a codeASM) install(ks *kernelSet) {
	ks.cdt, ks.hl = a.tile(), a.headList()
}

// headList returns the tier's head list kernel: the assembly over every
// panel, the last one's rows past n dropped from the list's end.
func (a codeASM) headList() func(uh []int16, ts []int32, panels []uint8, n int, live []int32) int {
	return func(uh []int16, ts []int32, panels []uint8, n int, live []int32) int {
		np := (n + HeadPanelRows - 1) / HeadPanelRows
		if np == 0 || len(ts) == 0 {
			return 0
		}
		_, _, _ = uh[len(ts)*HeadDim-1], panels[np*headPanel-1], live[np*HeadPanelRows-1]
		k := a.list(&uh[0], &ts[0], len(ts), &panels[0], np, &live[0])
		for k > 0 && live[k-1] >= int32(n) {
			k--
		}
		return k
	}
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

// codeVariants returns every assembly code tier the CPU can run, by name,
// its code tile and head list in a kernel set, whichever one the tiers
// hold: on a VNNI host the AVX-512 tier holds ZV, so tests reach ZM (the
// kernels of AVX-512 hosts without VNNI) only through here. VPDPWSSD's
// fused square-accumulate makes ZV's four-query tile about 20 % faster
// than ZM's VPMADDWD + VPADDD (BenchmarkCodeL2Tile's shape, 65,536 × 128).
func codeVariants() map[string]kernelSet {
	v := map[string]kernelSet{}
	for name, a := range map[string]codeASM{"Y": codeY, "ZM": codeZM, "ZV": codeZV} {
		if a.ok {
			var ks kernelSet
			a.install(&ks)
			v[name] = ks
		}
	}
	return v
}

var (
	codeZV = codeASM{codeRowsZV, codeQuadZV, headListZV, 32, haveVNNI}
	codeZM = codeASM{codeRowsZM, codeQuadZM, headListZM, 32, haveAVX512BW}
	codeY  = codeASM{codeRowsY, codeQuadY, headListY, 16, haveAVX2FMA}
)

// installCodeKernels puts the assembly code-grid kernels into the tiers
// installASMKernels gave vector code.
func installCodeKernels() {
	z := codeZV
	if !z.ok {
		z = codeZM
	}
	if codeY.ok {
		codeY.install(&kernels[LevelAVX2])
		kernels[LevelAVX2].mm = minMaxOf(minMaxY, 8)
		kernels[LevelAVX2].enc = encodeOf(encodeY, 16)
	}
	switch {
	case z.ok:
		z.install(&kernels[LevelAVX512])
		kernels[LevelAVX512].mm = minMaxOf(minMaxZ, 64)
		kernels[LevelAVX512].enc = encodeOf(encodeZ, 64)
	case codeY.ok:
		codeY.install(&kernels[LevelAVX512])
		kernels[LevelAVX512].mm = minMaxOf(minMaxY, 8)
		kernels[LevelAVX512].enc = encodeOf(encodeY, 16)
	}
}
