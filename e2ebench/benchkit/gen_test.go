package benchkit

import (
	"math/rand"
	"testing"
	"time"
)

func TestGeneratorsAreFunctionsOfTheSeed(t *testing.T) {
	sum := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		h := NewStreamHash()
		data := SIFTLike(r, 100, 16)
		h.Floats(data)
		h.Floats(Uniform(r, 100, 8))
		h.Floats(Queries(r, data, 16, 10))
		h.Ints(Attrs(r, 50, 10000)...)
		h.Durations(PoissonArrivals(r, 400, time.Second))
		return h.Sum()
	}
	if a, b := sum(1), sum(1); a != b {
		t.Errorf("same seed, different stream: %s vs %s", a, b)
	}
	if a, b := sum(1), sum(2); a == b {
		t.Errorf("different seeds, same stream %s", a)
	}
}

func TestGeneratedValuesAreInRange(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, x := range SIFTLike(r, 200, 8) {
		if x < 0 || x > 255 {
			t.Fatalf("SIFT-like component %g outside [0,255]", x)
		}
	}
	for i := 0; i < 1000; i++ {
		share := []float64{0.01, 0.10, 0.50}[i%3]
		lo, hi := Range(r, 10000, share)
		if lo < 0 || hi >= 10000 || float64(hi-lo+1) != 10000*share {
			t.Fatalf("Range(share %g) = [%d,%d]", share, lo, hi)
		}
	}
	due := PoissonArrivals(r, 400, 10*time.Second)
	if n := len(due); n < 3600 || n > 4400 {
		t.Errorf("%d arrivals in 10 s at 400/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 10*time.Second {
			t.Fatalf("arrival %d at %v out of order or past the window", i, due[i])
		}
	}
	if got := Ticks(64*time.Millisecond, time.Second); len(got) != 16 || got[15] != 960*time.Millisecond {
		t.Errorf("Ticks(64ms, 1s) = %v", got)
	}
}
