package quantizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vectordb/internal/vec"
)

func randData(r *rand.Rand, n, dim int) []float32 {
	d := make([]float32, n*dim)
	for i := range d {
		d[i] = float32(r.NormFloat64() * 10)
	}
	return d
}

func TestSQ8RoundTripError(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	dim := 16
	data := randData(r, 500, dim)
	q, err := TrainSQ8(data, dim)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := 0; i < 500; i++ {
		v := data[i*dim : (i+1)*dim]
		dec := q.Decode(q.Encode(v, nil), nil)
		for j := range v {
			e := math.Abs(float64(v[j] - dec[j]))
			// max error is half a quantization step
			step := float64(q.Step[j])
			if e > step/2+1e-5 {
				t.Fatalf("dim %d: error %v exceeds step/2 %v", j, e, step/2)
			}
			if e > worst {
				worst = e
			}
		}
	}
	if worst == 0 {
		t.Fatal("suspicious: zero quantization error on random data")
	}
}

func TestSQ8ClampsOutOfRange(t *testing.T) {
	data := []float32{0, 0, 10, 10} // two 2-d vectors
	q, err := TrainSQ8(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	code := q.Encode([]float32{-100, 100}, nil)
	if code[0] != 0 || code[1] != 255 {
		t.Fatalf("clamping failed: %v", code)
	}
}

func TestSQ8ConstantDimension(t *testing.T) {
	data := []float32{5, 1, 5, 2, 5, 3} // first dim constant
	q, err := TrainSQ8(data, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := q.Decode(q.Encode([]float32{5, 2}, nil), nil)
	if dec[0] != 5 {
		t.Fatalf("constant dim decoded to %v, want 5", dec[0])
	}
}

func TestSQ8DistancesMatchDecoded(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	dim := 8
	data := randData(r, 200, dim)
	q, err := TrainSQ8(data, dim)
	if err != nil {
		t.Fatal(err)
	}
	query := randData(r, 1, dim)
	for i := 0; i < 50; i++ {
		v := data[i*dim : (i+1)*dim]
		code := q.Encode(v, nil)
		dec := q.Decode(code, nil)
		wantL2 := vec.L2Squared(query, dec)
		if got := q.L2Squared(query, code); math.Abs(float64(got-wantL2)) > 1e-2 {
			t.Fatalf("L2Squared = %v, want %v", got, wantL2)
		}
		wantIP := vec.Dot(query, dec)
		if got := q.Dot(query, code); math.Abs(float64(got-wantIP)) > 1e-2 {
			t.Fatalf("Dot = %v, want %v", got, wantIP)
		}
	}
}

func TestSQ8TrainErrors(t *testing.T) {
	if _, err := TrainSQ8(nil, 4); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := TrainSQ8([]float32{1, 2, 3}, 2); err == nil {
		t.Error("ragged data accepted")
	}
	if _, err := TrainSQ8([]float32{1}, 0); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestPQEncodeDecodeReducesError(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	dim := 16
	data := randData(r, 1000, dim)
	pq, err := TrainPQ(data, dim, PQConfig{M: 4, Ks: 64, MaxIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pq.CodeSize() != 4 {
		t.Fatalf("CodeSize = %d, want 4", pq.CodeSize())
	}
	// Reconstruction must be much closer than a random other vector.
	var reconErr, randErr float64
	for i := 0; i < 200; i++ {
		v := data[i*dim : (i+1)*dim]
		dec := pq.Decode(pq.Encode(v, nil), nil)
		reconErr += float64(vec.L2Squared(v, dec))
		other := data[((i+500)%1000)*dim : ((i+500)%1000+1)*dim]
		randErr += float64(vec.L2Squared(v, other))
	}
	if reconErr >= randErr/4 {
		t.Fatalf("reconstruction error %v not ≪ random-pair error %v", reconErr, randErr)
	}
}

// TestPQEncodeMatchesExactArgmin: on every kernel tier, each sub-space
// code names a float64-nearest codebook entry, up to the documented 1e-5
// relative tolerance (DESIGN.md §8).
func TestPQEncodeMatchesExactArgmin(t *testing.T) {
	defer vec.SetLevel(vec.CurrentLevel())
	r := rand.New(rand.NewSource(6))
	const dim, n = 20, 600
	data := randData(r, n, dim)
	pq, err := TrainPQ(data, dim, PQConfig{M: 4, Ks: 256, MaxIter: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := randData(r, 50, dim)
	for _, lvl := range vec.Levels() {
		vec.SetLevel(lvl)
		for i := 0; i < 50; i++ {
			v := qs[i*dim : (i+1)*dim]
			code := pq.Encode(v, nil)
			for m := 0; m < pq.M; m++ {
				sub := v[m*pq.SubDim : (m+1)*pq.SubDim]
				ref := make([]float64, pq.Ks)
				best := 0
				for c := range ref {
					for j, x := range sub {
						e := float64(x) - float64(pq.Codebooks[m][c*pq.SubDim+j])
						ref[c] += e * e
					}
					if ref[c] < ref[best] {
						best = c
					}
				}
				if got := int(code[m]); ref[got] > ref[best]+1e-5*math.Max(1, ref[best]) {
					t.Fatalf("%v row %d sub-space %d: code %d (d=%g), nearest %d (d=%g)", lvl, i, m, got, ref[got], best, ref[best])
				}
			}
		}
	}
}

func TestPQADCTableMatchesDecodedDistance(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	dim := 8
	data := randData(r, 300, dim)
	pq, err := TrainPQ(data, dim, PQConfig{M: 2, Ks: 16, MaxIter: 6})
	if err != nil {
		t.Fatal(err)
	}
	q := randData(r, 1, dim)
	l2t := pq.L2Table(q)
	ipt := pq.IPTable(q)
	for i := 0; i < 50; i++ {
		code := pq.Encode(data[i*dim:(i+1)*dim], nil)
		dec := pq.Decode(code, nil)
		if got, want := l2t.Distance(code), vec.L2Squared(q, dec); math.Abs(float64(got-want)) > 1e-3 {
			t.Fatalf("ADC L2 = %v, want %v", got, want)
		}
		if got, want := ipt.Distance(code), -vec.Dot(q, dec); math.Abs(float64(got-want)) > 1e-3 {
			t.Fatalf("ADC IP = %v, want %v", got, want)
		}
	}
}

func TestPQConfigErrors(t *testing.T) {
	data := randData(rand.New(rand.NewSource(5)), 10, 8)
	if _, err := TrainPQ(data, 8, PQConfig{M: 3}); err == nil {
		t.Error("M not dividing dim accepted")
	}
	if _, err := TrainPQ(data, 8, PQConfig{M: 2, Ks: 300}); err == nil {
		t.Error("Ks > 256 accepted")
	}
	if _, err := TrainPQ(nil, 8, PQConfig{M: 2}); err == nil {
		t.Error("empty data accepted")
	}
}

// Property: SQ8 encode∘decode∘encode is idempotent (codes are fixed points).
func TestSQ8EncodeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	dim := 4
	data := randData(r, 64, dim)
	q, err := TrainSQ8(data, dim)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rr.NormFloat64() * 10)
		}
		c1 := q.Encode(v, nil)
		c2 := q.Encode(q.Decode(c1, nil), nil)
		for j := range c1 {
			// Allow off-by-one from rounding at bucket boundaries.
			d := int(c1[j]) - int(c2[j])
			if d < -1 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSQ8L2(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	dim := 128
	data := randData(r, 100, dim)
	q, _ := TrainSQ8(data, dim)
	code := q.Encode(data[:dim], nil)
	query := randData(r, 1, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.L2Squared(query, code)
	}
}

func BenchmarkPQADC(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	dim := 128
	data := randData(r, 2000, dim)
	pq, err := TrainPQ(data, dim, PQConfig{M: 16, Ks: 256, MaxIter: 4})
	if err != nil {
		b.Fatal(err)
	}
	code := pq.Encode(data[:dim], nil)
	tab := pq.L2Table(randData(r, 1, dim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Distance(code)
	}
}
