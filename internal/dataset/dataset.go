// Package dataset generates the synthetic workloads used by the experiment
// harness. The paper evaluates on SIFT1B (128-d SIFT descriptors), Deep1B
// (96-d normalized CNN descriptors) and Recipe1M (two vectors per entity);
// none of those multi-hundred-GB corpora are available here, so this package
// produces deterministic laptop-scale stand-ins that preserve the structural
// properties the experiments depend on: cluster skew (drives IVF bucket
// selectivity), normalization (drives IP/cosine behaviour), and cross-field
// correlation (drives multi-vector aggregation). See DESIGN.md §1.
package dataset

import (
	"math/rand"

	"vectordb/internal/vec"
)

// Dataset is a flat row-major collection of float vectors.
type Dataset struct {
	Name string
	Dim  int
	N    int
	Data []float32 // N*Dim
}

// Row returns vector i as a slice view.
func (d *Dataset) Row(i int) []float32 { return d.Data[i*d.Dim : (i+1)*d.Dim] }

// SIFTLike generates n 128-dimensional vectors resembling SIFT descriptors:
// non-negative, heavy-tailed gradient histograms drawn around k latent
// cluster centers (natural image descriptors are strongly clustered, which
// is what makes IVF indexes effective on SIFT1B).
func SIFTLike(n int, seed int64) *Dataset {
	return clustered("sift-like", n, 128, 64, seed, func(r *rand.Rand, x float32) float32 {
		v := x + float32(r.NormFloat64()*8)
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		return v
	}, func(r *rand.Rand) float32 { return float32(r.Float64() * 128) })
}

// DeepLike generates n 96-dimensional L2-normalized vectors resembling
// Deep1B CNN descriptors: Gaussian mixture, then unit-normalized.
func DeepLike(n int, seed int64) *Dataset {
	d := clustered("deep-like", n, 96, 48, seed, func(r *rand.Rand, x float32) float32 {
		return x + float32(r.NormFloat64()*0.15)
	}, func(r *rand.Rand) float32 { return float32(r.NormFloat64()) })
	for i := 0; i < d.N; i++ {
		vec.Normalize(d.Row(i))
	}
	return d
}

// Uniform generates n dim-dimensional vectors uniform in [0,1); useful for
// worst-case (unclustered) index behaviour in ablations.
//
//lint:allow testonly the IVF golden blobs and benchmarks draw their rows from it
func Uniform(n, dim int, seed int64) *Dataset {
	r := rand.New(rand.NewSource(seed))
	d := &Dataset{Name: "uniform", Dim: dim, N: n, Data: make([]float32, n*dim)}
	for i := range d.Data {
		d.Data[i] = r.Float32()
	}
	return d
}

func clustered(name string, n, dim, k int, seed int64, perturb func(*rand.Rand, float32) float32, center func(*rand.Rand) float32) *Dataset {
	r := rand.New(rand.NewSource(seed))
	centers := make([]float32, k*dim)
	for i := range centers {
		centers[i] = center(r)
	}
	d := &Dataset{Name: name, Dim: dim, N: n, Data: make([]float32, n*dim)}
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		row := d.Data[i*dim : (i+1)*dim]
		base := centers[c*dim : (c+1)*dim]
		for j := 0; j < dim; j++ {
			row[j] = perturb(r, base[j])
		}
	}
	return d
}

// Queries draws nq query vectors with the same distribution as d by sampling
// rows and re-perturbing them slightly (so queries have near neighbors but
// are not dataset members).
func Queries(d *Dataset, nq int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float32, nq*d.Dim)
	for i := 0; i < nq; i++ {
		src := d.Row(r.Intn(d.N))
		dst := out[i*d.Dim : (i+1)*d.Dim]
		for j := range dst {
			dst[j] = src[j] + float32(r.NormFloat64()*0.01*float64(absf(src[j])+1))
		}
	}
	return out
}

func absf(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// MultiVector is a dataset where every entity has F correlated vector fields
// (the Recipe1M stand-in: field 0 ≈ "text embedding", field 1 ≈ "image
// embedding"). Fields[f] is the flat matrix of field f.
type MultiVector struct {
	Name   string
	N      int
	Dims   []int
	Fields [][]float32
}

// Field returns vector i of field f.
func (m *MultiVector) Field(f, i int) []float32 {
	dim := m.Dims[f]
	return m.Fields[f][i*dim : (i+1)*dim]
}

// RecipeLikeNoise generates n entities with vector fields of the given
// dims, each derived from a shared latent cluster plus independent noise of
// the given level, so the fields agree on coarse similarity but disagree in
// detail — the regime where naive per-field top-k misses true multi-vector
// results. Higher noise weakens the cross-field correlation, approaching
// Recipe1M's weakly coupled text/image modalities.
func RecipeLikeNoise(n int, dims []int, noise float64, seed int64) *MultiVector {
	r := rand.New(rand.NewSource(seed))
	const k = 32
	m := &MultiVector{Name: "recipe-like", N: n, Dims: dims, Fields: make([][]float32, len(dims))}
	latents := make([][]float32, len(dims))
	for f, dim := range dims {
		latents[f] = make([]float32, k*dim)
		for i := range latents[f] {
			latents[f][i] = float32(r.NormFloat64())
		}
		m.Fields[f] = make([]float32, n*dim)
	}
	for i := 0; i < n; i++ {
		c := r.Intn(k)
		for f, dim := range dims {
			row := m.Fields[f][i*dim : (i+1)*dim]
			base := latents[f][c*dim : (c+1)*dim]
			for j := 0; j < dim; j++ {
				row[j] = base[j] + float32(r.NormFloat64()*noise)
			}
		}
	}
	return m
}

// Attributes generates one numerical attribute per row, uniform over
// [0, upper), matching the Fig. 14/15 setup ("augment each vector with an
// attribute of a random value ranging from 0 to 10000").
func Attributes(n int, upper int64, seed int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63n(upper)
	}
	return out
}
