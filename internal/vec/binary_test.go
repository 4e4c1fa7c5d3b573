package vec

import "math/bits"

// The set-based definitions of the binary metrics: Metric.Dist's word
// kernels are held to them.

// PopCount returns the number of set bits.
func (v BinaryVector) PopCount() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// HammingDistance counts differing bits between a and b.
func HammingDistance(a, b BinaryVector) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] ^ b[i])
	}
	return n
}

// JaccardDistance is 1 - |a∧b|/|a∨b|. Two empty sets have distance 0.
func JaccardDistance(a, b BinaryVector) float32 {
	var inter, union int
	for i := range a {
		inter += bits.OnesCount64(a[i] & b[i])
		union += bits.OnesCount64(a[i] | b[i])
	}
	if union == 0 {
		return 0
	}
	return 1 - float32(inter)/float32(union)
}

// TanimotoDistance is 1 - |a∧b|/(|a|+|b|-|a∧b|). On binary data this equals
// Jaccard; it is exposed under its cheminformatics name.
func TanimotoDistance(a, b BinaryVector) float32 {
	var inter, ca, cb int
	for i := range a {
		inter += bits.OnesCount64(a[i] & b[i])
		ca += bits.OnesCount64(a[i])
		cb += bits.OnesCount64(b[i])
	}
	den := ca + cb - inter
	if den == 0 {
		return 0
	}
	return 1 - float32(inter)/float32(den)
}
