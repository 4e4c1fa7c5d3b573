package quantizer

// Fused SQ8 asymmetric distance computation (ADC). SQ8.L2Squared decodes
// scalar per dimension: every code byte costs a dequantization
// (min + t·step) before the subtract-square. For one query scanning
// thousands of codes, the query-dependent parts of that arithmetic are loop
// invariants. Expanding the L2 term per dimension with r = query - min and
// t = float32(code):
//
//	(query - (min + t·step))² = (r - t·step)² = r² + t·(t·step² - 2·r·step)
//
// so with per-query precomputed coefficients c2 = step², c1 = -2·r·step and
// base = Σ r², a code's distance is base + Σ t·(t·c2 + c1): two fused
// multiply-adds per dimension, no decode, no per-dimension min/step loads
// from the quantizer. Inner product factors the same way:
// Σ q·(min + t·step) = Σ q·min + Σ t·(q·step).
//
// SQ8Query holds the coefficients; DistanceBatch is the contiguous-code
// batch entry point used by the IVF_SQ8 bucket scans and SQ8H's CPU leg.

// SQ8Query is a per-query fused-ADC table for one SQ8 quantizer. Distances
// follow the engine's smaller-is-better convention: L2 queries yield squared
// L2, IP queries yield negated inner product.
type SQ8Query struct {
	dim  int
	base float32
	c1   []float32 // linear coefficient per dimension
	c2   []float32 // quadratic coefficient per dimension; nil for IP
}

// L2Query precomputes the fused squared-L2 coefficients for query.
func (q *SQ8) L2Query(query []float32) *SQ8Query {
	s := &SQ8Query{dim: q.Dim, c1: make([]float32, q.Dim), c2: make([]float32, q.Dim)}
	var base float32
	for j := 0; j < q.Dim; j++ {
		r := query[j] - q.Min[j]
		base += r * r
		s.c1[j] = -2 * r * q.Step[j]
		s.c2[j] = q.Step[j] * q.Step[j]
	}
	s.base = base
	return s
}

// IPQuery precomputes the fused negated-inner-product coefficients for
// query (distance = -dot(query, decode(code))).
func (q *SQ8) IPQuery(query []float32) *SQ8Query {
	s := &SQ8Query{dim: q.Dim, c1: make([]float32, q.Dim)}
	var base float32
	for j := 0; j < q.Dim; j++ {
		base -= query[j] * q.Min[j]
		s.c1[j] = -query[j] * q.Step[j]
	}
	s.base = base
	return s
}

// Query builds the fused table for the metric convention the caller uses:
// ip selects IPQuery, otherwise L2Query (matching SQ8.Dot vs SQ8.L2Squared).
func (q *SQ8) Query(query []float32, ip bool) *SQ8Query {
	if ip {
		return q.IPQuery(query)
	}
	return q.L2Query(query)
}

// Distance computes the fused distance of one code (len Dim).
func (s *SQ8Query) Distance(code []uint8) float32 {
	if s.c2 == nil {
		return s.base + s.dotTerm(code)
	}
	return s.base + s.l2Term(code)
}

func (s *SQ8Query) l2Term(code []uint8) float32 {
	c1, c2 := s.c1, s.c2
	var a0, a1 float32
	j := 0
	for ; j+4 <= len(code); j += 4 {
		t0 := float32(code[j])
		t1 := float32(code[j+1])
		t2 := float32(code[j+2])
		t3 := float32(code[j+3])
		a0 += t0*(t0*c2[j]+c1[j]) + t1*(t1*c2[j+1]+c1[j+1])
		a1 += t2*(t2*c2[j+2]+c1[j+2]) + t3*(t3*c2[j+3]+c1[j+3])
	}
	a := a0 + a1
	for ; j < len(code); j++ {
		t := float32(code[j])
		a += t * (t*c2[j] + c1[j])
	}
	return a
}

func (s *SQ8Query) dotTerm(code []uint8) float32 {
	c1 := s.c1
	var a0, a1 float32
	j := 0
	for ; j+4 <= len(code); j += 4 {
		a0 += float32(code[j])*c1[j] + float32(code[j+1])*c1[j+1]
		a1 += float32(code[j+2])*c1[j+2] + float32(code[j+3])*c1[j+3]
	}
	a := a0 + a1
	for ; j < len(code); j++ {
		a += float32(code[j]) * c1[j]
	}
	return a
}

// DistanceBatch computes fused distances for a contiguous block of codes
// (len(codes) = n·Dim) into out (len >= n) — the batch entry point for
// IVF_SQ8 bucket scans and SQ8H's CPU leg, never materializing decoded
// floats.
func (s *SQ8Query) DistanceBatch(codes []uint8, out []float32) {
	dim := s.dim
	n := len(codes) / dim
	for i := 0; i < n; i++ {
		out[i] = s.Distance(codes[i*dim : (i+1)*dim])
	}
}
