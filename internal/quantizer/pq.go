package quantizer

import (
	"fmt"

	"vectordb/internal/kmeans"
	"vectordb/internal/vec"
)

// PQ is a product quantizer: the vector is split into M sub-vectors and each
// sub-space gets its own Ks-centroid codebook learned with K-means (Sec. 3.1,
// IVF_PQ). A vector encodes to M bytes (Ks ≤ 256).
type PQ struct {
	Dim    int
	M      int // number of sub-quantizers
	SubDim int // Dim / M
	Ks     int // centroids per sub-space, ≤ 256
	// Codebooks[m] is a flat Ks×SubDim matrix for sub-space m.
	Codebooks [][]float32
}

// PQConfig controls PQ training.
type PQConfig struct {
	M       int   // required; must divide dim
	Ks      int   // default 256
	MaxIter int   // K-means iterations per sub-space
	Seed    int64 // RNG seed
}

// TrainPQ learns per-sub-space codebooks from flat row-major training data.
func TrainPQ(data []float32, dim int, cfg PQConfig) (*PQ, error) {
	if cfg.Ks == 0 {
		cfg.Ks = 256
	}
	if cfg.Ks < 1 || cfg.Ks > 256 {
		return nil, fmt.Errorf("quantizer: Ks must be in [1,256], got %d", cfg.Ks)
	}
	if cfg.M <= 0 || dim%cfg.M != 0 {
		return nil, fmt.Errorf("quantizer: M=%d must divide dim=%d", cfg.M, dim)
	}
	if len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("quantizer: bad training data length %d for dim %d", len(data), dim)
	}
	n := len(data) / dim
	sub := dim / cfg.M
	pq := &PQ{Dim: dim, M: cfg.M, SubDim: sub, Ks: cfg.Ks, Codebooks: make([][]float32, cfg.M)}
	subData := make([]float32, n*sub)
	for m := 0; m < cfg.M; m++ {
		for i := 0; i < n; i++ {
			copy(subData[i*sub:(i+1)*sub], data[i*dim+m*sub:i*dim+(m+1)*sub])
		}
		res, err := kmeans.Train(subData, sub, kmeans.Config{K: cfg.Ks, MaxIter: cfg.MaxIter, Seed: cfg.Seed + int64(m)})
		if err != nil {
			return nil, fmt.Errorf("quantizer: sub-space %d: %w", m, err)
		}
		cb := make([]float32, len(res.Centroids))
		copy(cb, res.Centroids)
		pq.Codebooks[m] = cb
	}
	return pq, nil
}

// Encode quantizes v into an M-byte code.
func (p *PQ) Encode(v []float32, code []uint8) []uint8 {
	if code == nil {
		code = make([]uint8, p.M)
	}
	for m := 0; m < p.M; m++ {
		best, _ := kmeans.Nearest(v[m*p.SubDim:(m+1)*p.SubDim], p.Codebooks[m], p.SubDim)
		code[m] = uint8(best)
	}
	return code
}

// ADCTable holds precomputed per-sub-space distances from one query to every
// codebook centroid, enabling O(M) asymmetric distance computation per code.
type ADCTable struct {
	m, ks int
	tab   []float32 // m*ks
}

// L2Table precomputes the asymmetric squared-L2 table for query: one
// batch-kernel dispatch per sub-space codebook.
func (p *PQ) L2Table(query []float32) *ADCTable { return p.table(query, vec.L2SquaredBatch) }

// IPTable precomputes the inner-product table (stored negated so Distance
// stays smaller-is-better).
func (p *PQ) IPTable(query []float32) *ADCTable { return p.table(query, vec.NegDotBatch) }

func (p *PQ) table(query []float32, batch func(q, data []float32, dim int, out []float32)) *ADCTable {
	t := &ADCTable{m: p.M, ks: p.Ks, tab: make([]float32, p.M*p.Ks)}
	for m := 0; m < p.M; m++ {
		batch(query[m*p.SubDim:(m+1)*p.SubDim], p.Codebooks[m], p.SubDim, t.tab[m*p.Ks:(m+1)*p.Ks])
	}
	return t
}

// Distance looks up the ADC distance of one code in O(M).
func (t *ADCTable) Distance(code []uint8) float32 {
	var s float32
	for m := 0; m < t.m; m++ {
		s += t.tab[m*t.ks+int(code[m])]
	}
	return s
}

// CodeSize returns the encoded size in bytes per vector.
func (p *PQ) CodeSize() int { return p.M }
