package vec

import "math"

// 8-bit code copies for exact L2 scans (the VA-file idea: Weber, Schek &
// Blott, VLDB 1998). A column's codes sit on one uniform grid over the
// column's whole value range: min, and step = (max − min)/255, so a
// coordinate x has code c = round((x − min)/step) in [0, 255] and lies
// within step/2 of its grid point min + c·step. A query gets a grid point
// too, u (int16, clamped to [−255, 510]), and a residual ρ = ‖q − grid(u)‖.
// The integer S = Σ (u_j − c_j)² then proves, by the triangle inequality,
//
//	‖q − x‖ ≥ step·√S − ρ − step·√dim·(½ + ε)
//
// where ε covers the float32 rounding of the encode. A scan reads the
// codes first and scores in float only the rows whose bound can still beat
// its top-k bound: one integer threshold per block (Threshold).
//
// A column of at least HeadMinDim dims also keeps a head: each row's first
// HeadDim codes again, in panels of HeadPanelRows rows (n × HeadDim bytes,
// n rounded up to the panel, zero-padded). A panel is dim-pair-major: for
// each pair of dims (2j, 2j+1), 32 bytes hold rows 0–15's two codes side
// by side, so one widened register holds 16 rows' pair and one
// multiply-add puts each row's two squares in its own int32 lane — 16
// rows' head S in one register, with no horizontal sum. The head's S is a
// partial sum of the row's S, so it never exceeds it, and a row whose head
// S is already above a threshold is proven out without reading the rest
// of its codes — partial-distance elimination, on a quarter of the bytes
// a 128-dim row streams. HeadList scores a block's panels and lists the
// rows that may still beat some query's threshold in one kernel.

const (
	// HeadDim is the width of a head row.
	HeadDim = 32
	// HeadMinDim is the narrowest column that keeps a head: below it the
	// head saves too few bytes per row to pay for a second pass.
	HeadMinDim = 128
	// HeadPanelRows is the number of rows in a head panel.
	HeadPanelRows = 16
	headPanel     = HeadPanelRows * HeadDim // bytes per panel
)

// MaxCodeDim is the widest field a code grid serves: S ≤ dim·510² must fit
// an int32, which the kernels accumulate in.
const MaxCodeDim = math.MaxInt32 / (510 * 510)

const (
	// codeEps is ε above: the encode's float32 arithmetic moves a code's
	// grid point at most 255·3·2⁻²⁴ steps past the half step.
	codeEps = 0x1p-10
	// codeRel is the relative margin a bound must clear over the top-k
	// bound: the float32 kernels round a distance by at most (dim+3)·2⁻²⁴
	// of it, ≤ 4.93e-4 for every dim up to MaxCodeDim, so a row whose
	// exact distance clears worst·(1+2⁻¹⁰) scores above worst in float.
	codeRel = 0x1p-10
	// codeAbs per dimension covers float32 underflow, which is absolute.
	codeAbs = 0x1p-130
	// codeUp rounds the float64 bound arithmetic up.
	codeUp = 1 + 0x1p-30
)

// Codes is the 8-bit code copy of a row-major float32 column (n rows of
// Dim), on the column's grid.
type Codes struct {
	Data  []uint8 // n × Dim codes, row-major like the column
	Head  []uint8 // each row's first HeadDim codes in panels; nil below HeadMinDim
	Dim   int
	lo    float64 // the grid's min, a float32 value
	step  float64 // (max − min)/255
	slack float64 // step·√Dim·(½+ε): how far a row may sit off its codes
	maxS  float64 // Dim·510², the largest S
}

// EncodeCodes derives data's grid from its exact min and max and encodes
// every value on it with the hooked tier's kernels. It returns nil when no
// grid serves the column: a NaN or ±Inf value, a constant column (step 0),
// a span too wide or too narrow for float32 codes, or dim > MaxCodeDim.
func EncodeCodes(data []float32, dim int) *Codes {
	return encodeWith(active.Load(), data, dim)
}

// Rows returns the codes of rows [i0, i1).
func (c *Codes) Rows(i0, i1 int) []uint8 { return c.Data[i0*c.Dim : i1*c.Dim] }

// HeadList lists the rows of [i0, i1) whose head S is within some
// member's threshold: uh holds len(ts) members' head grid points (each
// one's first HeadDim coordinates of u), ts their thresholds (−1 lists
// nothing for that member). It writes the rows' offsets from i0,
// ascending, into live (len ≥ i1−i0 rounded up to HeadPanelRows) and
// returns how many. i0 must be a multiple of HeadPanelRows.
func (c *Codes) HeadList(uh []int16, ts []int32, i0, i1 int, live []int32) int {
	countCurrentCode()
	return active.Load().hl(uh, ts, c.Head[i0*HeadDim:], i1-i0, live)
}

// Prepare writes q's grid point into u (len Dim) and returns the slack a
// threshold adds for q: its residual ρ plus the rows' own offset, rounded
// up. A NaN or ±Inf coordinate makes it NaN or +Inf, and then Threshold
// prunes nothing.
func (c *Codes) Prepare(q []float32, u []int16) float64 {
	var s float64
	for j, x := range q[:c.Dim] {
		xf := float64(x)
		v := math.RoundToEven((xf - c.lo) / c.step)
		if !(v >= -255) { // NaN too
			v = -255
		}
		v = min(v, 510)
		u[j] = int16(v)
		g := v * c.step
		// |x − grid(u)| and a bound on the three roundings of computing it.
		r := math.Abs(xf-(c.lo+g)) + (math.Abs(xf)+math.Abs(c.lo)+math.Abs(g))*0x1p-50
		s += r * r
	}
	return math.Sqrt(s)*codeUp + c.slack
}

// Threshold returns the largest S a row may have and still hold a float
// distance below worst, for a query whose Prepare returned slack: every
// row with a larger S is proven to score above worst. ok is false when no
// row can be pruned: worst is +Inf or NaN, slack is not finite, or the
// threshold reaches every S the grid can produce.
func (c *Codes) Threshold(slack float64, worst float32) (t int32, ok bool) {
	w := float64(worst)*(1+codeRel) + float64(c.Dim)*codeAbs
	a := (math.Sqrt(w) + slack) / c.step
	b := a * a * codeUp
	if !(b < c.maxS) {
		return 0, false
	}
	return int32(b), true
}

// CodeL2Tile computes S for every (query, row) pair: nq = len(us)/dim
// query grid points against n = len(codes)/dim code rows, out query-major
// (out[qi*n+i], len ≥ nq*n). S is an exact integer, so every tier returns
// the same values. The assembly tiers widen each code chunk once for up to
// four queries. dim must not exceed MaxCodeDim.
func CodeL2Tile(us []int16, codes []uint8, dim int, out []int32) {
	countCurrentCode()
	active.Load().cdt(us, codes, dim, len(us)/dim, out)
}

// encodeWith is EncodeCodes on the kernel set ks.
func encodeWith(ks *kernelSet, data []float32, dim int) *Codes {
	if dim <= 0 || dim > MaxCodeDim || len(data) < dim {
		return nil
	}
	lo, hi, ok := ks.mm(data)
	span := float64(hi) - float64(lo)
	if !ok || !(span > 0) || span > math.MaxFloat32 {
		return nil
	}
	step := span / 255
	inv := 1 / step
	if inv > math.MaxFloat32 {
		return nil
	}
	c := &Codes{
		Data: make([]uint8, len(data)/dim*dim),
		Dim:  dim, lo: float64(lo), step: step,
		slack: step * math.Sqrt(float64(dim)) * (0.5 + codeEps),
		maxS:  float64(dim) * 510 * 510,
	}
	ks.enc(data[:len(c.Data)], lo, float32(inv), c.Data)
	if dim >= HeadMinDim {
		n := len(c.Data) / dim
		c.Head = make([]uint8, (n+HeadPanelRows-1)/HeadPanelRows*headPanel)
		for i := 0; i < n; i++ {
			p := c.Head[i/HeadPanelRows*headPanel+i%HeadPanelRows*2:]
			for j := 0; j < HeadDim; j += 2 {
				p[j*HeadPanelRows], p[j*HeadPanelRows+1] = c.Data[i*dim+j], c.Data[i*dim+j+1]
			}
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Pure-Go kernels: the reference every assembly tier is fuzzed against.

// codeTileGo scores each code row against every query in turn.
func codeTileGo(us []int16, codes []uint8, dim, nq int, out []int32) {
	n := len(codes) / dim
	for i := 0; i < n; i++ {
		row := codes[i*dim : (i+1)*dim]
		for qi := 0; qi < nq; qi++ {
			out[qi*n+i] = codeL2Go(us[qi*dim:(qi+1)*dim], row)
		}
	}
}

// headListGo scores each panel's rows against every member, pair by pair
// into one sum per row, and lists the rows within some member's threshold.
func headListGo(uh []int16, ts []int32, panels []uint8, n int, live []int32) int {
	k := 0
	for p0 := 0; p0 < n; p0 += HeadPanelRows {
		panel := (*[headPanel]uint8)(panels[p0*HeadDim:])
		var keep [HeadPanelRows]bool
		for q, t := range ts {
			u := (*[HeadDim]int16)(uh[q*HeadDim:])
			var s [HeadPanelRows]int32
			for j := 0; j < HeadDim; j += 2 {
				u0, u1 := int32(u[j]), int32(u[j+1])
				pair := (*[2 * HeadPanelRows]uint8)(panel[j*HeadPanelRows:])
				for r := range s {
					d0, d1 := int32(pair[2*r])-u0, int32(pair[2*r+1])-u1
					s[r] += d0*d0 + d1*d1
				}
			}
			for r, v := range s {
				keep[r] = keep[r] || v <= t
			}
		}
		for r, ok := range keep[:min(HeadPanelRows, n-p0)] {
			if ok {
				live[k] = int32(p0 + r)
				k++
			}
		}
	}
	return k
}

// codeL2Go is one row's S, four independent accumulators wide.
func codeL2Go(u []int16, c []uint8) int32 {
	c = c[:len(u)]
	var s0, s1, s2, s3 int32
	j := 0
	for ; j+4 <= len(u); j += 4 {
		d0 := int32(u[j]) - int32(c[j])
		d1 := int32(u[j+1]) - int32(c[j+1])
		d2 := int32(u[j+2]) - int32(c[j+2])
		d3 := int32(u[j+3]) - int32(c[j+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; j < len(u); j++ {
		d := int32(u[j]) - int32(c[j])
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// minMaxGo returns data's min and max, and false if any value is NaN or
// ±Inf (x − x is then NaN, not 0).
func minMaxGo(data []float32) (lo, hi float32, ok bool) {
	lo, hi = data[0], data[0]
	for _, x := range data {
		if x-x != 0 {
			return 0, 0, false
		}
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, hi, true
}

// encodeGo writes each value's code: (x − lo)·inv in float32, clamped to
// [0, 255] and rounded half to even, as the assembly's VCVTPS2DQ does.
func encodeGo(data []float32, lo, inv float32, out []uint8) {
	out = out[:len(data)]
	for i, x := range data {
		t := float32(x-lo) * inv
		t = min(max(t, 0), 255)
		out[i] = uint8(math.RoundToEven(float64(t)))
	}
}
