package benchkit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"time"
)

// The generators below mirror internal/dataset's recipes on purpose instead
// of calling them: the benchmark's inputs must not change when the program
// does.

// Uniform generates n dim-dimensional vectors uniform in [0,1), row-major:
// the unclustered worst case for an inverted-file index.
func Uniform(r *rand.Rand, n, dim int) []float32 {
	data := make([]float32, n*dim)
	for i := range data {
		data[i] = r.Float32()
	}
	return data
}

// SIFTLike generates n dim-dimensional vectors resembling SIFT descriptors:
// non-negative values in [0,255] scattered (σ=8) around 64 latent centres
// drawn uniform in [0,128) — strongly clustered, as image descriptors are.
func SIFTLike(r *rand.Rand, n, dim int) []float32 {
	const centres = 64
	base := make([]float32, centres*dim)
	for i := range base {
		base[i] = float32(r.Float64() * 128)
	}
	data := make([]float32, n*dim)
	for i := 0; i < n; i++ {
		c := r.Intn(centres)
		for j := 0; j < dim; j++ {
			v := base[c*dim+j] + float32(r.NormFloat64()*8)
			data[i*dim+j] = float32(math.Min(255, math.Max(0, float64(v))))
		}
	}
	return data
}

// Queries draws nq query vectors near dataset rows: a row picked uniformly
// over the whole dataset, each component moved by about 1 % of its size,
// so a query has near neighbours without being a member.
func Queries(r *rand.Rand, data []float32, dim, nq int) []float32 {
	n := len(data) / dim
	out := make([]float32, nq*dim)
	for i := 0; i < nq; i++ {
		src := data[r.Intn(n)*dim:][:dim]
		for j, x := range src {
			out[i*dim+j] = x + float32(r.NormFloat64()*0.01*(math.Abs(float64(x))+1))
		}
	}
	return out
}

// Attrs draws one integer attribute per row, uniform in [0, upper).
func Attrs(r *rand.Rand, n int, upper int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(upper)
	}
	return out
}

// Range draws an inclusive attribute range covering share of [0, upper),
// placed uniformly.
func Range(r *rand.Rand, upper int64, share float64) (lo, hi int64) {
	width := int64(float64(upper) * share)
	if width < 1 {
		width = 1
	}
	lo = r.Int63n(upper - width + 1)
	return lo, lo + width - 1
}

// PoissonArrivals draws the due times of a Poisson process of the given
// rate over [0, window).
func PoissonArrivals(r *rand.Rand, ratePerSec float64, window time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / ratePerSec
		d := time.Duration(t * float64(time.Second))
		if d >= window {
			return due
		}
		due = append(due, d)
	}
}

// Ticks returns the due times 0, period, 2·period, … below window.
func Ticks(period, window time.Duration) []time.Duration {
	var due []time.Duration
	for d := time.Duration(0); d < window; d += period {
		due = append(due, d)
	}
	return due
}

// StreamHash fingerprints generated inputs: whatever the benchmark is about
// to send goes through it, so two runs that print the same hash sent the
// program the same requests.
type StreamHash struct{ h hash.Hash }

func NewStreamHash() *StreamHash { return &StreamHash{h: sha256.New()} }

func (s *StreamHash) Floats(xs []float32) {
	buf := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
	}
	s.h.Write(buf)
}

func (s *StreamHash) Ints(xs ...int64) {
	buf := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(x))
	}
	s.h.Write(buf)
}

func (s *StreamHash) Durations(ds []time.Duration) {
	for _, d := range ds {
		s.Ints(int64(d))
	}
}

// Sum returns the first 16 hex digits of the digest.
func (s *StreamHash) Sum() string { return hex.EncodeToString(s.h.Sum(nil))[:16] }
