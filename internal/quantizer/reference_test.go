package quantizer

// The direct definitions of decoding and of a code's distance: the tests
// hold the fused ADC tables and the encoders to them.

// Decode reconstructs an approximate vector from code into out.
func (q *SQ8) Decode(code []uint8, out []float32) []float32 {
	if out == nil {
		out = make([]float32, q.Dim)
	}
	for j := 0; j < q.Dim; j++ {
		out[j] = q.Min[j] + float32(code[j])*q.Step[j]
	}
	return out
}

// L2Squared computes squared L2 distance between a float query and a code
// without materializing the decoded vector.
func (q *SQ8) L2Squared(query []float32, code []uint8) float32 {
	var s float32
	for j := 0; j < q.Dim; j++ {
		d := query[j] - (q.Min[j] + float32(code[j])*q.Step[j])
		s += d * d
	}
	return s
}

// Dot computes the inner product of a float query with a decoded code.
func (q *SQ8) Dot(query []float32, code []uint8) float32 {
	var s float32
	for j := 0; j < q.Dim; j++ {
		s += query[j] * (q.Min[j] + float32(code[j])*q.Step[j])
	}
	return s
}

// Decode reconstructs the approximate vector from an M-byte code.
func (p *PQ) Decode(code []uint8, out []float32) []float32 {
	if out == nil {
		out = make([]float32, p.Dim)
	}
	for m := 0; m < p.M; m++ {
		cb := p.Codebooks[m]
		c := int(code[m])
		copy(out[m*p.SubDim:(m+1)*p.SubDim], cb[c*p.SubDim:(c+1)*p.SubDim])
	}
	return out
}

// Dim returns the code length the table expects.
func (s *SQ8Query) Dim() int { return s.dim }
