package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// panelScores64 returns every centroid's score ‖c‖² − 2·x·c in float64,
// and the magnitude ‖c‖² + 2·Σ|x_d·c_d| its rounding error scales with.
func panelScores64(x, codebook []float32, dim int) (score, mag []float64) {
	k := len(codebook) / dim
	score, mag = make([]float64, k), make([]float64, k)
	for c := 0; c < k; c++ {
		var nc, dot, abs float64
		for d, v := range codebook[c*dim : (c+1)*dim] {
			nc += float64(v) * float64(v)
			dot += float64(x[d]) * float64(v)
			abs += math.Abs(float64(x[d]) * float64(v))
		}
		score[c], mag[c] = nc-2*dot, nc+2*abs
	}
	return score, mag
}

// checkPanelTier compares tier l's panel kernel with the pure-Go form on
// one block: per lane, Best and Second within the tolerance
// FuzzKernelTiersAgree gives a dot product (1e-4 of the magnitude of the
// terms, plus 1e-5), and Arg a centroid of the lane whose float64 score is
// that close to the lane's minimum; where the lane's float64 minimum is
// clear of its runner-up by more than twice the tolerance, Arg is exactly
// the pure-Go form's.
func checkPanelTier(t *testing.T, l Level, x, codebook []float32, dim int) {
	t.Helper()
	p := NewPanels(codebook, dim)
	n, k := len(x)/dim, len(codebook)/dim
	got := make([]PanelMin, n)
	want := make([]PanelMin, n)
	L2PanelMinAt(l, x, p, got)
	L2PanelMinAt(LevelScalar, x, p, want)
	inf := float32(math.Inf(1))
	for i := 0; i < n; i++ {
		score, mag := panelScores64(x[i*dim:(i+1)*dim], codebook, dim)
		for j := 0; j < PanelWidth; j++ {
			g, w := &got[i], &want[i]
			if j >= k {
				if g.Best[j] != inf || g.Second[j] != inf || g.Arg[j] != 0 {
					t.Fatalf("%v dim %d K %d row %d: empty lane %d = (%v, %v, %d)", l, dim, k, i, j, g.Best[j], g.Second[j], g.Arg[j])
				}
				continue
			}
			var tol float64
			best, second := math.Inf(1), math.Inf(1)
			for c := j; c < k; c += PanelWidth {
				tol = max(tol, 1e-4*mag[c]+1e-5)
				if s := score[c]; s < best {
					best, second = s, best
				} else if s < second {
					second = s
				}
			}
			for _, v := range []struct {
				name      string
				got, want float32
			}{{"Best", g.Best[j], w.Best[j]}, {"Second", g.Second[j], w.Second[j]}} {
				if math.Abs(float64(v.got)-float64(v.want)) > tol && !(math.IsInf(float64(v.got), 1) && math.IsInf(float64(v.want), 1)) {
					t.Fatalf("%v dim %d K %d row %d lane %d: %s %v, pure Go %v (tol %g)", l, dim, k, i, j, v.name, v.got, v.want, tol)
				}
			}
			a := int(g.Arg[j])
			if a%PanelWidth != j || a >= k || score[a] > best+2*tol {
				t.Fatalf("%v dim %d K %d row %d lane %d: Arg %d (score %g), lane minimum %g", l, dim, k, i, j, a, score[a], best)
			}
			if second-best > 2*tol && g.Arg[j] != w.Arg[j] {
				t.Fatalf("%v dim %d K %d row %d lane %d: Arg %d, pure Go %d", l, dim, k, i, j, g.Arg[j], w.Arg[j])
			}
		}
	}
}

// TestPanelKernelTiersAgree runs every tier's panel kernel against the
// pure-Go form over block lengths around the assembly's four-row groups,
// dims around its 16-lane width, and codebooks from one centroid to past
// an odd number of panels.
func TestPanelKernelTiersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	for _, dim := range []int{1, 3, 15, 16, 17, 32, 33, 64, 100} {
		for _, k := range []int{1, 5, 16, 17, 32, 33, 48, 100, 300} {
			codebook := randVec(r, k*dim)
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64} {
				x := randVec(r, n*dim)
				for _, l := range Levels() {
					checkPanelTier(t, l, x, codebook, dim)
				}
			}
		}
	}
}

// TestPanelMinTies: duplicate centroids tie exactly on every tier, so Arg
// is the lower index and Second equals Best.
func TestPanelMinTies(t *testing.T) {
	const dim = 20
	r := rand.New(rand.NewSource(55))
	c := randVec(r, dim)
	codebook := make([]float32, 0, 40*dim)
	for i := 0; i < 40; i++ {
		if i == 3 || i == 19 || i == 35 {
			codebook = append(codebook, c...) // lane 3 three times
		} else {
			codebook = append(codebook, randVec(r, dim)...)
		}
	}
	p := NewPanels(codebook, dim)
	out := make([]PanelMin, 5)
	x := make([]float32, 0, 5*dim)
	for i := 0; i < 5; i++ {
		x = append(x, c...)
	}
	for _, l := range Levels() {
		L2PanelMinAt(l, x, p, out)
		for i := range out {
			if out[i].Arg[3] != 3 || out[i].Second[3] != out[i].Best[3] {
				t.Fatalf("%v row %d lane 3: Arg %d Best %v Second %v, want Arg 3 and a tie", l, i, out[i].Arg[3], out[i].Best[3], out[i].Second[3])
			}
		}
	}
}

// FuzzPanelKernelTiersAgree: arbitrary finite rows and codebooks through
// every tier's panel kernel agree with the pure-Go form (checkPanelTier).
// The first byte picks dim (1–40), the second the row count (1–9); the
// rest are float32s, a third of them rows and the rest the codebook, with
// non-finite values and magnitudes past 1e15 zeroed so that no score
// overflows in one summation order and not in another.
func FuzzPanelKernelTiersAgree(f *testing.F) {
	add := func(dim, rows byte, vals ...float32) {
		buf := []byte{dim, rows}
		for _, v := range vals {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
		}
		f.Add(buf)
	}
	add(0, 0, 1, 2, 3, 4)
	add(2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 4)
	add(15, 4, 1e-20, 3e-20, 255, 0, 128, 64, 1e-40, 2e-38)
	r := rand.New(rand.NewSource(56))
	var big []float32
	for i := 0; i < 600; i++ {
		big = append(big, float32(r.Intn(256)))
	}
	add(16, 8, big...)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 2+4*4096 {
			return
		}
		dim, n := 1+int(data[0])%40, 1+int(data[1])%9
		var vals []float32
		for i := 2; i+4 <= len(data); i += 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(data[i:]))
			if math.IsNaN(float64(v)) || math.Abs(float64(v)) > 1e15 {
				v = 0
			}
			vals = append(vals, v)
		}
		if len(vals) < (n+1)*dim {
			return
		}
		x := vals[:n*dim]
		codebook := vals[n*dim : n*dim+(len(vals)-n*dim)/dim*dim]
		for _, l := range Levels() {
			checkPanelTier(t, l, x, codebook, dim)
		}
	})
}
