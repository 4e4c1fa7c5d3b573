// Package quantizer implements the fine quantizers of Sec. 3.1: the scalar
// quantizer (SQ8) that compresses each 4-byte float to a 1-byte integer, and
// the product quantizer (PQ) that splits vectors into sub-vectors and runs
// K-means per sub-space.
package quantizer

import "fmt"

// SQ8 is a per-dimension linear scalar quantizer mapping float32 to uint8.
// It stores per-dimension [min, max] ranges learned from training data; a
// value x encodes to round((x-min)/(max-min)*255). IVF_SQ8 takes 1/4 the
// space of IVF_FLAT while losing only ~1% recall (footnote 6).
type SQ8 struct {
	Dim  int
	Min  []float32 // per-dimension minimum
	Step []float32 // (max-min)/255 per dimension; 0 for constant dimensions
}

// TrainSQ8 learns per-dimension ranges from flat row-major training data.
func TrainSQ8(data []float32, dim int) (*SQ8, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("quantizer: dim must be positive, got %d", dim)
	}
	if len(data) == 0 || len(data)%dim != 0 {
		return nil, fmt.Errorf("quantizer: bad training data length %d for dim %d", len(data), dim)
	}
	n := len(data) / dim
	minv := make([]float32, dim)
	maxv := make([]float32, dim)
	copy(minv, data[:dim])
	copy(maxv, data[:dim])
	for i := 1; i < n; i++ {
		row := data[i*dim : (i+1)*dim]
		for j, x := range row {
			if x < minv[j] {
				minv[j] = x
			}
			if x > maxv[j] {
				maxv[j] = x
			}
		}
	}
	step := make([]float32, dim)
	for j := range step {
		step[j] = (maxv[j] - minv[j]) / 255
	}
	return &SQ8{Dim: dim, Min: minv, Step: step}, nil
}

// Encode quantizes v into code (len Dim). code is returned for chaining.
func (q *SQ8) Encode(v []float32, code []uint8) []uint8 {
	if code == nil {
		code = make([]uint8, q.Dim)
	}
	for j := 0; j < q.Dim; j++ {
		if q.Step[j] == 0 {
			code[j] = 0
			continue
		}
		x := (v[j] - q.Min[j]) / q.Step[j]
		switch {
		case x <= 0:
			code[j] = 0
		case x >= 255:
			code[j] = 255
		default:
			code[j] = uint8(x + 0.5)
		}
	}
	return code
}

// CodeSize returns the encoded size in bytes per vector.
func (q *SQ8) CodeSize() int { return q.Dim }
