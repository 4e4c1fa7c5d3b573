package vec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// codeData draws n×dim values of one of the shapes the scans see: "sift"
// (non-negative integers 0..127, SIFT-like), "uniform" in [-1, 1), "deep"
// (unit-norm Gaussian rows), "huge" (near ±1e30) and "tiny" (whose squares
// underflow float32).
func codeData(r *rand.Rand, shape string, n, dim int) []float32 {
	data := make([]float32, n*dim)
	for i := range data {
		switch shape {
		case "sift":
			data[i] = float32(r.Intn(128))
		case "uniform":
			data[i] = r.Float32()*2 - 1
		case "deep":
			data[i] = float32(r.NormFloat64())
		case "huge":
			data[i] = float32((r.Float64()*2 - 1) * 1e30)
		case "tiny":
			data[i] = float32(r.Float64() * 1e-30)
		}
	}
	if shape == "deep" {
		for i := 0; i < n; i++ {
			Normalize(data[i*dim : (i+1)*dim])
		}
	}
	return data
}

// FuzzCodeDistance: every tier's code tile kernel, and every assembly
// tile the CPU can run (both AVX-512 forms, with and without VNNI),
// returns the pure-Go reference's S bit for bit, for any grid points,
// codes, dim, row count and query count — the assembly's chunk and row
// tails included.
func FuzzCodeDistance(f *testing.F) {
	f.Add(uint16(1), uint8(1), int64(1))
	f.Add(uint16(17), uint8(3), int64(2))
	f.Add(uint16(32), uint8(4), int64(3))
	f.Add(uint16(100), uint8(5), int64(4))
	f.Add(uint16(128), uint8(1), int64(5))
	f.Add(uint16(300), uint8(9), int64(6))
	f.Add(uint16(MaxCodeDim), uint8(2), int64(7))
	f.Fuzz(func(t *testing.T, d uint16, q uint8, seed int64) {
		dim := 1 + int(d)%MaxCodeDim
		nq := 1 + int(q)%9
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(11)
		if dim > 1024 {
			n = min(n, 5)
		}
		us := make([]int16, nq*dim)
		for i := range us {
			us[i] = int16(r.Intn(766) - 255)
			if r.Intn(8) == 0 { // the extremes, where int32 lanes fill fastest
				us[i] = [2]int16{-255, 510}[r.Intn(2)]
			}
		}
		codes := make([]uint8, n*dim)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
			if r.Intn(8) == 0 {
				codes[i] = [2]uint8{0, 255}[r.Intn(2)]
			}
		}
		want := make([]int32, nq*n)
		for i := 0; i < n; i++ {
			for qi := 0; qi < nq; qi++ {
				var s int64
				for j := 0; j < dim; j++ {
					e := int64(us[qi*dim+j]) - int64(codes[i*dim+j])
					s += e * e
				}
				want[qi*n+i] = int32(s)
			}
		}
		for _, l := range Levels() {
			got := make([]int32, nq*n)
			CodeL2TileAt(l, us, codes, dim, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%v dim %d nq %d n %d: S %v, want %v", l, dim, nq, n, got, want)
			}
		}
		for name, ks := range codeVariants() {
			got := make([]int32, nq*n)
			ks.cdt(us, codes, dim, nq, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s dim %d nq %d n %d: S %v, want %v", name, dim, nq, n, got, want)
			}
		}
	})
}

// FuzzCodeHead: a column of at least HeadMinDim dims keeps each row's
// first HeadDim codes as its head, in zero-padded panels, the same on
// every tier, and a narrower one keeps none; for any grid points, a row's
// head S never exceeds its full S, and every tier's and every assembly
// kernel's head list, one query or a batch, lists exactly the rows whose
// head S is within some member's threshold — so every row whose full S is
// within it.
func FuzzCodeHead(f *testing.F) {
	f.Add(uint16(127), uint8(3), uint8(1), int64(1))
	f.Add(uint16(128), uint8(5), uint8(4), int64(2))
	f.Add(uint16(130), uint8(9), uint8(5), int64(3))
	f.Add(uint16(200), uint8(40), uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, d uint16, rows, q uint8, seed int64) {
		dim := HeadMinDim - 8 + int(d)%200
		n, nq := 1+int(rows)%40, 1+int(q)%17
		r := rand.New(rand.NewSource(seed))
		shapes := []string{"sift", "uniform", "deep", "huge", "tiny"}
		data := codeData(r, shapes[r.Intn(len(shapes))], n, dim)
		ref := encodeWith(&kernelSet{mm: minMaxGo, enc: encodeGo}, data, dim)
		if ref == nil {
			t.Skip("no grid")
		}
		for _, l := range Levels() {
			c := EncodeCodesAt(l, data, dim)
			if c == nil || (c.Head != nil) != (dim >= HeadMinDim) || !slices.Equal(c.Head, ref.Head) {
				t.Fatalf("%v dim %d: head %d bytes, want the reference's %d", l, dim, len(c.Head), len(ref.Head))
			}
		}
		if ref.Head == nil {
			return
		}
		np := (n + HeadPanelRows - 1) / HeadPanelRows
		if len(ref.Head) != np*headPanel {
			t.Fatalf("dim %d n %d: head %d bytes, want %d panels", dim, n, len(ref.Head), np)
		}
		for i := 0; i < np*HeadPanelRows; i++ {
			want := make([]uint8, HeadDim) // a padded row is all zero
			if i < n {
				want = ref.Rows(i, i+1)[:HeadDim]
			}
			if got := panelRow(ref.Head, i); !slices.Equal(got, want) {
				t.Fatalf("dim %d row %d: head %v, want the row's first codes %v", dim, i, got, want)
			}
		}
		us := make([]int16, nq*dim)
		uh := make([]int16, 0, nq*HeadDim)
		for i := range us {
			us[i] = int16(r.Intn(766) - 255)
		}
		heads := make([]uint8, 0, n*HeadDim)
		for i := 0; i < n; i++ {
			heads = append(heads, ref.Rows(i, i+1)[:HeadDim]...)
		}
		for qi := 0; qi < nq; qi++ {
			uh = append(uh, us[qi*dim:qi*dim+HeadDim]...)
		}
		full, head := make([]int32, nq*n), make([]int32, nq*n)
		codeTileGo(us, ref.Data, dim, nq, full)
		codeTileGo(uh, heads, HeadDim, nq, head)
		for i := range head {
			if head[i] > full[i] {
				t.Fatalf("dim %d: head S %d above full S %d", dim, head[i], full[i])
			}
		}
		// Each member's threshold is some row's full S, so some rows pass.
		ts := make([]int32, nq)
		for qi := range ts {
			ts[qi] = full[qi*n+r.Intn(n)]
		}
		var want []int32
		for i := 0; i < n; i++ {
			kept, needed := false, false
			for qi, th := range ts {
				kept = kept || head[qi*n+i] <= th
				needed = needed || full[qi*n+i] <= th
			}
			if needed && !kept {
				t.Fatalf("dim %d row %d: full S within a threshold, head S not", dim, i)
			}
			if kept {
				want = append(want, int32(i))
			}
		}
		for name, list := range headLists() {
			live := make([]int32, np*HeadPanelRows)
			if got := live[:list(uh, ts, ref.Head, n, live)]; !slices.Equal(got, want) {
				t.Fatalf("%s dim %d nq %d n %d: listed %v, want %v", name, dim, nq, n, got, want)
			}
		}
	})
}

// panelRow returns row i's codes out of head panels.
func panelRow(head []uint8, i int) []uint8 {
	p := head[i/HeadPanelRows*headPanel+i%HeadPanelRows*2:]
	row := make([]uint8, 0, HeadDim)
	for j := 0; j < HeadDim; j += 2 {
		row = append(row, p[j*HeadPanelRows], p[j*HeadPanelRows+1])
	}
	return row
}

// headLists returns every tier's head list and every assembly one the
// CPU can run, by name.
func headLists() map[string]func(uh []int16, ts []int32, panels []uint8, n int, live []int32) int {
	lists := map[string]func(uh []int16, ts []int32, panels []uint8, n int, live []int32) int{}
	for name, ks := range codeVariants() {
		lists[name] = ks.hl
	}
	for _, l := range Levels() {
		lists[l.String()] = func(uh []int16, ts []int32, panels []uint8, n int, live []int32) int {
			return HeadListAt(l, uh, ts, panels, n, live)
		}
	}
	return lists
}

// FuzzHeadList: every tier's head list, and every assembly one the CPU
// can run, lists exactly the rows a direct sum over each row's codes
// lists, for any panels (padding included: rows past n are never listed,
// whatever their bytes), 1 to 32 members and thresholds of −1, 0, a row's
// S, a random value and the largest head S.
func FuzzHeadList(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(1))
	f.Add(uint8(16), uint8(2), int64(2))
	f.Add(uint8(17), uint8(3), int64(3))
	f.Add(uint8(100), uint8(4), int64(4))
	f.Add(uint8(255), uint8(1), int64(5))
	f.Add(uint8(31), uint8(0), int64(6))
	f.Add(uint8(64), uint8(0), int64(7))
	f.Add(uint8(200), uint8(0), int64(8))
	f.Add(uint8(47), uint8(15), int64(9))
	f.Add(uint8(250), uint8(31), int64(10))
	f.Fuzz(func(t *testing.T, rows, q uint8, seed int64) {
		n, m := int(rows), 1+int(q)%32
		r := rand.New(rand.NewSource(seed))
		np := (n + HeadPanelRows - 1) / HeadPanelRows
		panels := make([]uint8, np*headPanel)
		for i := range panels {
			panels[i] = uint8(r.Intn(256))
			if r.Intn(8) == 0 {
				panels[i] = [2]uint8{0, 255}[r.Intn(2)]
			}
		}
		uh := make([]int16, m*HeadDim)
		for i := range uh {
			uh[i] = int16(r.Intn(766) - 255)
			if r.Intn(8) == 0 { // the extremes, where int32 lanes fill fastest
				uh[i] = [2]int16{-255, 510}[r.Intn(2)]
			}
		}
		s := make([]int32, m*n)
		for qi := 0; qi < m; qi++ {
			for i := 0; i < n; i++ {
				var v int64
				for j, c := range panelRow(panels, i) {
					e := int64(uh[qi*HeadDim+j]) - int64(c)
					v += e * e
				}
				s[qi*n+i] = int32(v)
			}
		}
		ts := make([]int32, m)
		for qi := range ts {
			switch r.Intn(5) {
			case 0:
				ts[qi] = -1
			case 1:
				ts[qi] = 0
			case 2:
				if n > 0 {
					ts[qi] = s[qi*n+r.Intn(n)]
				}
			case 3:
				ts[qi] = int32(r.Intn(HeadDim * 510 * 510))
			default:
				ts[qi] = HeadDim * 510 * 510
			}
		}
		var want []int32
		for i := 0; i < n; i++ {
			k := false
			for qi, th := range ts {
				k = k || s[qi*n+i] <= th
			}
			if k {
				want = append(want, int32(i))
			}
		}
		for name, list := range headLists() {
			live := make([]int32, np*HeadPanelRows)
			if got := live[:list(uh, ts, panels, n, live)]; !slices.Equal(got, want) {
				t.Fatalf("%s n %d m %d ts %v: listed %v, want %v", name, n, m, ts, got, want)
			}
		}
	})
}

// TestEncodeTiersAgree: min/max and the encode give the same grid and
// codes on every tier, for every shape and for lengths off the assembly's
// widths; a NaN, an Inf or a constant column gets no grid.
func TestEncodeTiersAgree(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, shape := range []string{"sift", "uniform", "deep", "huge", "tiny"} {
		for _, dim := range []int{1, 3, 17, 100, 128} {
			data := codeData(r, shape, 37, dim)
			ref := encodeWith(&kernelSet{mm: minMaxGo, enc: encodeGo}, data, dim)
			if ref == nil {
				t.Fatalf("%s dim %d: no grid", shape, dim)
			}
			for _, l := range Levels() {
				c := EncodeCodesAt(l, data, dim)
				if c == nil || c.lo != ref.lo || c.step != ref.step || !slices.Equal(c.Data, ref.Data) {
					t.Fatalf("%s dim %d %v: codes differ from the Go reference", shape, dim, l)
				}
			}
		}
	}
	for name, poison := range map[string]float32{"nan": float32(math.NaN()), "inf": float32(math.Inf(-1))} {
		data := codeData(r, "uniform", 40, 8)
		data[37] = poison
		for _, l := range Levels() {
			if EncodeCodesAt(l, data, 8) != nil {
				t.Fatalf("%s %v: a grid over a non-finite value", name, l)
			}
		}
	}
	flat := make([]float32, 64)
	for i := range flat {
		flat[i] = 3
	}
	for _, l := range Levels() {
		if EncodeCodesAt(l, flat, 8) != nil {
			t.Fatalf("%v: a grid over a constant column", l)
		}
	}
}

// TestCodeBoundNeverExceedsExact: for every row, the bound the codes
// prove, step·√S − slack, never exceeds the float64 exact distance — over
// every data shape, queries inside and far outside the grid, and a
// constant dimension; and a row the threshold prunes always scores above
// the top-k bound in float32 too.
func TestCodeBoundNeverExceedsExact(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, shape := range []string{"sift", "uniform", "deep", "huge", "tiny"} {
		for _, dim := range []int{1, 17, 100, 128, 300} {
			n := 200
			data := codeData(r, shape, n, dim)
			for i := 0; i < n && dim > 1; i++ { // one constant dimension
				data[i*dim] = data[0]
			}
			c := EncodeCodes(data, dim)
			if c == nil {
				t.Fatalf("%s dim %d: no grid", shape, dim)
			}
			for trial := 0; trial < 6; trial++ {
				q := slices.Clone(data[r.Intn(n)*dim:][:dim])
				for j := range q {
					switch trial {
					case 1, 2:
						q[j] += float32(r.NormFloat64()) * q[j] / 8
					case 3: // far outside the grid
						q[j] = q[j]*40 + float32(c.step)*1000
					case 4:
						q[j] = -q[j] * 3
					case 5:
						q[j] = codeData(r, shape, 1, 1)[0]
					}
				}
				u := make([]int16, dim)
				slack := c.Prepare(q, u)
				s := make([]int32, n)
				CodeL2Tile(u, c.Data, dim, s)
				fl := make([]float32, n)
				L2SquaredBatch(q, data, dim, fl)
				for i := 0; i < n; i++ {
					var exact float64
					for j := 0; j < dim; j++ {
						e := float64(q[j]) - float64(data[i*dim+j])
						exact += e * e
					}
					if b := c.step*math.Sqrt(float64(s[i])) - slack; b > 0 && b*b > exact {
						t.Fatalf("%s dim %d trial %d row %d: bound² %g > exact %g", shape, dim, trial, i, b*b, exact)
					}
				}
				sorted := slices.Clone(fl)
				slices.Sort(sorted)
				for _, worst := range []float32{sorted[0], sorted[n/100], sorted[n/10], sorted[n/2]} {
					th, ok := c.Threshold(slack, worst)
					if !ok {
						continue
					}
					for i := 0; i < n; i++ {
						if s[i] > th && !(fl[i] > worst) {
							t.Fatalf("%s dim %d trial %d: row %d pruned at S %d > %d, yet scores %g ≤ worst %g",
								shape, dim, trial, i, s[i], th, fl[i], worst)
						}
					}
				}
			}
		}
	}
}

// TestThresholdPrunesNothingUnsafe: a NaN or ±Inf query, an unset (+Inf)
// or NaN top-k bound never prune.
func TestThresholdPrunesNothingUnsafe(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := codeData(r, "uniform", 50, 4)
	c := EncodeCodes(data, 4)
	u := make([]int16, 4)
	for _, q := range [][]float32{
		{float32(math.NaN()), 0, 0, 0},
		{float32(math.Inf(1)), 0, 0, 0},
		{0, float32(math.Inf(-1)), 0, 0},
	} {
		if _, ok := c.Threshold(c.Prepare(q, u), 0.5); ok {
			t.Fatalf("query %v: a threshold", q)
		}
	}
	slack := c.Prepare([]float32{0, 0, 0, 0}, u)
	for _, w := range []float32{float32(math.Inf(1)), float32(math.NaN())} {
		if _, ok := c.Threshold(slack, w); ok {
			t.Fatalf("worst %v: a threshold", w)
		}
	}
}

// BenchmarkEncodeCodes: min/max plus encode of a 65,536 × 128 column on
// the hooked tier (the cost a segment's first scan pays once).
func BenchmarkEncodeCodes(b *testing.B) {
	data := codeData(rand.New(rand.NewSource(4)), "sift", 65536, 128)
	b.SetBytes(int64(len(data)) * 4)
	for i := 0; i < b.N; i++ {
		if EncodeCodes(data, 128) == nil {
			b.Fatal("no grid")
		}
	}
}

// BenchmarkCodeL2Tile: one code pass of a 65,536 × 128 column, one query
// and four, on the hooked tier and on each assembly tile the CPU can run
// (ZV against ZM is the VNNI form against the plain AVX-512BW one).
func BenchmarkCodeL2Tile(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	data := codeData(r, "sift", 65536, 128)
	c := EncodeCodes(data, 128)
	tiles := map[string]func(us []int16, codes []uint8, dim, nq int, out []int32){
		"hooked": func(us []int16, codes []uint8, dim, _ int, out []int32) { CodeL2Tile(us, codes, dim, out) },
	}
	for name, ks := range codeVariants() {
		tiles[name] = ks.cdt
	}
	for _, nq := range []int{1, 4} {
		us := make([]int16, nq*128)
		for q := 0; q < nq; q++ {
			c.Prepare(data[q*128:(q+1)*128], us[q*128:])
		}
		out := make([]int32, nq*65536)
		names := make([]string, 0, len(tiles))
		for name := range tiles {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			tile := tiles[name]
			b.Run(fmt.Sprintf("%s/q%d", name, nq), func(b *testing.B) {
				b.SetBytes(int64(len(c.Data)))
				for i := 0; i < b.N; i++ {
					tile(us, c.Data, 128, nq, out)
				}
			})
		}
	}
}

// BenchmarkHeadList: the head pass of a batch of 1, 4 or 16 members over
// one 256-row block (L1-resident) and over a 65,536-row column of
// SIFT-like rows, on every tier and every assembly kernel the CPU can run.
// Each member is a row of the column; its threshold is the 1,000th
// smallest head S of the column against it, so about 1.5 % of rows are
// listed per member, as on a coded scan's later blocks.
func BenchmarkHeadList(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	const n, dim, maxM = 65536, 128, 16
	data := codeData(r, "sift", n, dim)
	c := EncodeCodes(data, dim)
	heads := make([]uint8, 0, n*HeadDim)
	for i := 0; i < n; i++ {
		heads = append(heads, c.Rows(i, i+1)[:HeadDim]...)
	}
	u := make([]int16, dim)
	uh := make([]int16, 0, maxM*HeadDim)
	ts := make([]int32, maxM)
	s := make([]int32, n)
	for qi := range ts {
		c.Prepare(data[r.Intn(n)*dim:][:dim], u)
		uh = append(uh, u[:HeadDim]...)
		codeTileGo(u[:HeadDim], heads, HeadDim, 1, s)
		slices.Sort(s)
		ts[qi] = s[1000]
	}
	lists := headLists()
	names := make([]string, 0, len(lists))
	for name := range lists {
		names = append(names, name)
	}
	slices.Sort(names)
	live := make([]int32, n)
	for _, m := range []int{1, 4, maxM} {
		for _, rows := range []int{256, n} {
			for _, name := range names {
				list := lists[name]
				b.Run(fmt.Sprintf("%s/m%d/%d", name, m, rows), func(b *testing.B) {
					b.SetBytes(int64(rows * HeadDim))
					for i := 0; i < b.N; i++ {
						list(uh[:m*HeadDim], ts[:m], c.Head, rows, live)
					}
				})
			}
		}
	}
}
