package vec

import "math"

// Panel kernels: nearest-centroid search over a whole codebook, the
// assignment step of k-means. The tile kernels score one (row, centroid)
// pair per horizontal reduction and leave a rows×K distance tile for a
// scalar argmin to read back. The panel kernel instead holds the codebook
// transposed into panels of PanelWidth centroids, dim-major, and scores a
// register block of rows against a panel with one broadcast-FMA per
// (row, dim): each vector lane accumulates one centroid's dot product, so
// no distance needs a reduction. The score of centroid c for row x is
//
//	‖c‖² − 2·x·c  (= ‖x − c‖² − ‖x‖², the same order over c for one row)
//
// and each lane folds its scores into a running first minimum and second
// minimum as it goes, so the kernel writes three 16-wide vectors per row
// and nothing else. The scores carry rounding error that the exact L2
// kernels do not; the caller turns them into an exact answer (see
// kmeans.AssignAll, which bounds that error and re-scores near ties with
// the exact kernel).

// PanelWidth is the number of centroids in one panel: one AVX-512
// register of float32 lanes.
const PanelWidth = 16

// Panels is a codebook laid out for L2PanelMin: centroid c sits in lane
// c%16 of panel c/16, and a panel stores its 16 centroids' values of
// dimension d contiguously, d = 0..Dim-1. Lanes of the last panel past K
// hold zeros and a +Inf norm, so they never score below a real centroid.
type Panels struct {
	Dim     int
	cols    []float32 // panels × Dim × 16
	norms   []float32 // panels × 16: ‖c‖², rounded once from float64
	maxNorm float64   // max ‖c‖ in float64; NaN or +Inf if any centroid is non-finite
}

// NewPanels transposes the row-major codebook (K = len(codebook)/dim rows
// of dim floats) into panels and computes the centroid norms.
func NewPanels(codebook []float32, dim int) *Panels {
	k := len(codebook) / dim
	np := (k + PanelWidth - 1) / PanelWidth
	p := &Panels{Dim: dim, cols: make([]float32, np*dim*PanelWidth), norms: make([]float32, np*PanelWidth)}
	for i := k; i < len(p.norms); i++ {
		p.norms[i] = inf32()
	}
	var maxSq float64
	for c := 0; c < k; c++ {
		panel := p.cols[c/PanelWidth*dim*PanelWidth:]
		lane := c % PanelWidth
		var s float64
		for d, v := range codebook[c*dim : (c+1)*dim] {
			panel[d*PanelWidth+lane] = v
			s += float64(v) * float64(v)
		}
		p.norms[c] = float32(s)
		maxSq = max(maxSq, s)
	}
	p.maxNorm = math.Sqrt(maxSq)
	return p
}

// MaxNorm returns the largest centroid norm ‖c‖, computed in float64 (NaN
// or +Inf when a centroid holds a non-finite value).
func (p *Panels) MaxNorm() float64 { return p.maxNorm }

// PanelMin is one row's result from L2PanelMin, per lane j (the centroids
// c ≡ j mod 16): Best is the lowest score, Arg the lowest centroid index
// scoring Best, and Second the next lowest score (equal to Best on a tie).
// A lane with no centroid reads +Inf.
type PanelMin struct {
	Best, Second [PanelWidth]float32
	Arg          [PanelWidth]int32
}

// L2PanelMin scores every row of x (row-major, p.Dim floats a row, n rows)
// against every centroid of p and writes row i's per-lane minima to
// out[i] (len(out) >= n). One dispatch covers the whole block.
func L2PanelMin(x []float32, p *Panels, out []PanelMin) {
	countCurrentBatch()
	panelMin(active.Load().l2p, x, p, out)
}

func panelMin(kernel func(x []float32, p *Panels, out []PanelMin), x []float32, p *Panels, out []PanelMin) {
	if len(x)%p.Dim != 0 {
		panic("vec: dimension mismatch")
	}
	out = out[:len(x)/p.Dim]
	inf := inf32()
	for i := range out {
		for j := range out[i].Best {
			out[i].Best[j], out[i].Second[j], out[i].Arg[j] = inf, inf, 0
		}
	}
	if len(out) > 0 && len(p.norms) > 0 {
		kernel(x, p, out)
	}
}

// l2PanelGo is the pure-Go panel kernel, and the reference the assembly
// forms are tested against: each lane's dot product is summed front to
// back over the dimensions, half a panel (8 lanes) at a time.
func l2PanelGo(x []float32, p *Panels, out []PanelMin) {
	dim := p.Dim
	for i := range out {
		row := x[i*dim : (i+1)*dim]
		m := &out[i]
		for q := 0; q < len(p.norms)/PanelWidth; q++ {
			panel := p.cols[q*dim*PanelWidth : (q+1)*dim*PanelWidth]
			for h := 0; h < PanelWidth; h += 8 {
				var a0, a1, a2, a3, a4, a5, a6, a7 float32
				for d, v := range row {
					c := (*[8]float32)(panel[d*PanelWidth+h:])
					a0 += v * c[0]
					a1 += v * c[1]
					a2 += v * c[2]
					a3 += v * c[3]
					a4 += v * c[4]
					a5 += v * c[5]
					a6 += v * c[6]
					a7 += v * c[7]
				}
				c := q*PanelWidth + h
				for j, a := range [8]float32{a0, a1, a2, a3, a4, a5, a6, a7} {
					m.fold(h+j, p.norms[c+j]-2*a, int32(c+j))
				}
			}
		}
	}
}

// fold adds centroid c's score s to lane j, scores arriving in ascending
// centroid order: a strictly lower score takes Best and Arg, an equal one
// only lowers Second.
func (m *PanelMin) fold(j int, s float32, c int32) {
	if s < m.Best[j] {
		m.Second[j] = m.Best[j]
		m.Best[j], m.Arg[j] = s, c
	} else if s < m.Second[j] {
		m.Second[j] = s
	}
}
