package vec

// BinaryVector is a packed bit vector (64 bits per word) used for Hamming,
// Jaccard and Tanimoto metrics, e.g. chemical fingerprints (Sec. 6.2).
type BinaryVector []uint64

// NewBinaryVector returns a zeroed vector able to hold nbits bits.
func NewBinaryVector(nbits int) BinaryVector {
	return make(BinaryVector, (nbits+63)/64)
}

// SetBit sets bit i.
func (v BinaryVector) SetBit(i int) { v[i/64] |= 1 << (uint(i) % 64) }

// Bit reports bit i.
func (v BinaryVector) Bit(i int) bool { return v[i/64]&(1<<(uint(i)%64)) != 0 }
