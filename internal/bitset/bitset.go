// Package bitset provides dense, word-aligned bitsets over segment row
// positions. They are the carrier for attribute-filter pushdown: the
// predicate compiler (internal/colstore) sets one bit per matching row in
// index build order, and the scan driver (internal/index) consumes the set
// either as contiguous runs fed straight to the blocked batch kernels or as
// a sparse survivor list routed through the gather kernels. All operations
// work a uint64 word at a time so an AND/OR/NOT over a million-row segment
// touches ~16 KB, not a hash table.
package bitset

import (
	"math/bits"
	"slices"

	"vectordb/internal/bufferpool"
)

const wordBits = 64

// Bitset is a fixed-length bitset over positions [0, Len()). The zero value
// is an empty bitset of length 0; use New or Get for a sized one.
type Bitset struct {
	words []uint64
	n     int
}

// New returns a cleared bitset of length n bits.
func New(n int) *Bitset {
	b := &Bitset{}
	b.Reset(n)
	return b
}

// Reset resizes the bitset to n bits and clears every bit. The backing
// array is reused when large enough, so pooled bitsets do not reallocate.
func (b *Bitset) Reset(n int) {
	if n < 0 {
		n = 0
	}
	w := (n + wordBits - 1) / wordBits
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		for i := range b.words {
			b.words[i] = 0
		}
	}
	b.n = n
}

// Len returns the number of bit positions.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i. Out-of-range positions panic like a slice index would.
func (b *Bitset) Set(i int) {
	if i < 0 || i >= b.n {
		panic("bitset: Set out of range")
	}
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// SetWord ORs w into the i'th 64-bit word, covering bit positions
// [64i, 64i+64). Predicate compilers use it to assemble a bitset word at a
// time with branchless comparison bits instead of paying a mispredicted
// branch per Set call. Bits beyond Len in the final word are discarded.
// Out-of-range words panic like a slice index would.
func (b *Bitset) SetWord(i int, w uint64) {
	b.words[i] |= w
	if i == len(b.words)-1 {
		b.maskTail()
	}
}

// Clear clears bit i.
func (b *Bitset) Clear(i int) {
	if i < 0 || i >= b.n {
		panic("bitset: Clear out of range")
	}
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set. Out-of-range positions are false, so
// callers can probe with positions from a stale mapping without guarding.
func (b *Bitset) Test(i int) bool {
	if b == nil || i < 0 || i >= b.n {
		return false
	}
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitset) CountRange(lo, hi int) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	lw, hw := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-1-(hi-1)%wordBits)
	if lw == hw {
		return bits.OnesCount64(b.words[lw] & loMask & hiMask)
	}
	c := bits.OnesCount64(b.words[lw] & loMask)
	for i := lw + 1; i < hw; i++ {
		c += bits.OnesCount64(b.words[i])
	}
	return c + bits.OnesCount64(b.words[hw]&hiMask)
}

// CountAt returns how many of the positions in at are set — the match count
// of a filter resolved only where a scan will read it. Positions must lie
// in [0, Len()).
func (b *Bitset) CountAt(at []int32) int {
	c := 0
	for _, p := range at {
		c += int(b.words[uint32(p)/wordBits] >> (uint32(p) % wordBits) & 1)
	}
	return c
}

// AppendSet appends base+i to dst for every i whose position at[i] is set,
// without a branch per position: the survivor list of a scan whose rows
// map to positions at. Positions must lie in [0, Len()).
func (b *Bitset) AppendSet(dst []int32, at []int32, base int32) []int32 {
	n := len(dst)
	dst = slices.Grow(dst, len(at))[:n+len(at)]
	for i, p := range at {
		dst[n] = base + int32(i)
		n += int(b.words[uint32(p)/wordBits] >> (uint32(p) % wordBits) & 1)
	}
	return dst[:n]
}

// And intersects b with o in place. Lengths must match.
func (b *Bitset) And(o *Bitset) {
	b.check(o)
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// Or unions o into b in place. Lengths must match.
func (b *Bitset) Or(o *Bitset) {
	b.check(o)
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Complement flips every bit in place, masking the tail word so bits past
// Len() stay zero (Count and run extraction rely on that invariant).
func (b *Bitset) Complement() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.maskTail()
}

// SetAll sets every bit in [0, Len()).
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.maskTail()
}

func (b *Bitset) maskTail() {
	if rem := b.n % wordBits; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= ^uint64(0) >> uint(wordBits-rem)
	}
}

func (b *Bitset) check(o *Bitset) {
	if b.n != o.n {
		panic("bitset: length mismatch")
	}
}

// NextSet returns the position of the first set bit at or after i, or -1 if
// none. Zero words are skipped whole, so sparse iteration costs O(words),
// not O(bits).
func (b *Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	w := i / wordBits
	cur := b.words[w] >> uint(i%wordBits)
	if cur != 0 {
		return i + bits.TrailingZeros64(cur)
	}
	for w++; w < len(b.words); w++ {
		if b.words[w] != 0 {
			return w*wordBits + bits.TrailingZeros64(b.words[w])
		}
	}
	return -1
}

// NextRun returns the first maximal run [start, end) of consecutive set bits
// beginning at or after i. ok is false when no set bit remains. Runs are the
// unit of dense pushdown: a long run means the blocked kernels can process
// rows in place with zero copying.
func (b *Bitset) NextRun(i int) (start, end int, ok bool) {
	start = b.NextSet(i)
	if start < 0 {
		return 0, 0, false
	}
	// Scan forward for the first clear bit, whole words at a time.
	j := start
	w := j / wordBits
	// Invert and shift so a set run becomes trailing zeros. The shift pulls
	// zero bits in from the top, so an apparent clear bit at or past the
	// word boundary means the run may continue into the next word.
	if cur := ^(b.words[w] >> uint(j%wordBits)); cur != 0 {
		end = j + bits.TrailingZeros64(cur)
		if end < (w+1)*wordBits {
			if end > b.n {
				end = b.n
			}
			return start, end, true
		}
	}
	j = (w + 1) * wordBits
	for w++; w < len(b.words); w++ {
		if inv := ^b.words[w]; inv != 0 {
			end = w*wordBits + bits.TrailingZeros64(inv)
			if end > b.n {
				end = b.n
			}
			return start, end, true
		}
		j += wordBits
	}
	if j > b.n {
		j = b.n
	}
	return start, j, true
}

// pool recycles bitsets across queries; strategies compile one bitset per
// segment per query, and without pooling that is a words-sized allocation
// on every hybrid search.
var pool = bufferpool.NewFree(func() *Bitset { return &Bitset{} })

// Get returns a cleared pooled bitset of length n bits. Release with Put.
func Get(n int) *Bitset {
	b := pool.Get()
	b.Reset(n)
	return b
}

// Put recycles a bitset obtained from Get. The caller must not use it
// afterwards.
func Put(b *Bitset) {
	if b != nil {
		pool.Put(b)
	}
}
