// Package colstore implements the columnar entity storage of Sec. 2.4:
// vectors are stored contiguously sorted by row ID (multi-vector entities
// column-grouped by field), and each numerical attribute is stored as an
// array of ⟨key,rowID⟩ pairs sorted by key with per-page min/max skip
// pointers (following Snowflake) for fast point and range lookups.
package colstore

import (
	"cmp"
	"slices"
	"sort"

	"vectordb/internal/bitset"
)

// AttrEntry is one ⟨key, rowID⟩ pair of an attribute column.
type AttrEntry struct {
	Key int64 // attribute value
	Row int64 // row ID
}

// PageSize is the number of entries covered by one skip pointer.
const PageSize = 256

// AttributeColumn stores one numerical attribute sorted by value.
type AttributeColumn struct {
	entries []AttrEntry
	// pos[i] is the build position of entries[i] — the index its value had
	// in the slice BuildAttributeColumn sorted, which is the bit index every
	// scan path agrees on. raw is that slice itself (shared with the
	// builder's caller, never written), so a predicate compiles to a bitset
	// over positions without resolving a single row ID.
	pos []int32
	raw []int64
	// pageMin/pageMax are the skip pointers: min/max key per page. With the
	// column sorted by key, min/max reduce to first/last entry of the page,
	// exactly the data-page zone maps Snowflake keeps.
	pageMin []int64
	pageMax []int64
}

// BuildAttributeColumn sorts values into a column. values[i] belongs to row
// ids[i] (ids nil means row position) and sits at build position i. The
// column keeps values; callers must not modify it afterwards.
func BuildAttributeColumn(values []int64, ids []int64) *AttributeColumn {
	type keyed struct {
		AttrEntry
		pos int32
	}
	sorted := make([]keyed, len(values))
	for i, v := range values {
		row := int64(i)
		if ids != nil {
			row = ids[i]
		}
		sorted[i] = keyed{AttrEntry{Key: v, Row: row}, int32(i)}
	}
	slices.SortFunc(sorted, func(a, b keyed) int {
		if c := cmp.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return cmp.Compare(a.Row, b.Row)
	})
	c := &AttributeColumn{
		entries: make([]AttrEntry, len(sorted)),
		pos:     make([]int32, len(sorted)),
		raw:     values,
	}
	for i, e := range sorted {
		c.entries[i], c.pos[i] = e.AttrEntry, e.pos
	}
	c.buildSkipPointers()
	return c
}

func (c *AttributeColumn) buildSkipPointers() {
	n := len(c.entries)
	pages := (n + PageSize - 1) / PageSize
	c.pageMin = make([]int64, pages)
	c.pageMax = make([]int64, pages)
	for p := 0; p < pages; p++ {
		lo := p * PageSize
		hi := min(lo+PageSize, n)
		c.pageMin[p] = c.entries[lo].Key
		c.pageMax[p] = c.entries[hi-1].Key
	}
}

// Len returns the number of entries.
func (c *AttributeColumn) Len() int { return len(c.entries) }

// MinMax returns the column's overall key range; ok is false when empty.
func (c *AttributeColumn) MinMax() (min, max int64, ok bool) {
	if len(c.entries) == 0 {
		return 0, 0, false
	}
	return c.entries[0].Key, c.entries[len(c.entries)-1].Key, true
}

// seek returns the index of the first entry whose key is ≥ k (> k when
// after is set), Len() when there is none: the skip pointers pick the one
// page that can hold it, a binary search finds it inside. Comparing keys,
// never k±1, keeps MinInt64 and MaxInt64 bounds exact.
func (c *AttributeColumn) seek(k int64, after bool) int {
	past := func(key int64) bool { return key > k || (key == k && !after) }
	p := sort.Search(len(c.pageMax), func(p int) bool { return past(c.pageMax[p]) })
	if p == len(c.pageMax) {
		return len(c.entries)
	}
	start := p * PageSize
	page := c.entries[start:min(start+PageSize, len(c.entries))]
	return start + sort.Search(len(page), func(i int) bool { return past(page[i].Key) })
}

// run returns the half-open span of entries with lo ≤ key ≤ hi.
func (c *AttributeColumn) run(lo, hi int64) (first, last int) {
	if lo > hi {
		return 0, 0
	}
	return c.seek(lo, false), c.seek(hi, true)
}

// RangeRows returns the row IDs with lo ≤ key ≤ hi, in key order.
func (c *AttributeColumn) RangeRows(lo, hi int64) []int64 {
	first, last := c.run(lo, hi)
	if first == last {
		return nil
	}
	out := make([]int64, 0, last-first)
	for _, e := range c.entries[first:last] {
		out = append(out, e.Row)
	}
	return out
}

// CountRange counts entries with lo ≤ key ≤ hi without materializing rows —
// the selectivity estimate the cost-based strategy D needs.
func (c *AttributeColumn) CountRange(lo, hi int64) int {
	first, last := c.run(lo, hi)
	return last - first
}

// wideFillDiv is FillRange's narrow/wide crossover: a range matching at
// least 1/wideFillDiv of the column is filled from the raw values. Measured
// with BenchmarkFillRange over shuffled keys on the 2.1 GHz reference host:
// a bit set from the sorted run costs 1.3–1.6 ns per match (32K and 1M
// rows), the word fill 0.65 ns (32K) to 0.9 ns (1M) per row whatever
// matches, so the two meet between 0.45 and 0.55 of the column.
const wideFillDiv = 2

// atFillDiv bounds the positional fill: it compares the raw value at each
// given position, a random read, and pays only while the positions number
// under 1/atFillDiv of the column — past that the word fill over every row
// costs less (BenchmarkFillRange's at/N paths against wide).
const atFillDiv = 3

// FillRange sets, in out, the build position of every entry with
// lo ≤ key ≤ hi and returns how many there are; out must span Len()
// positions, and bits already set stay set. This is the one RangePred
// compile in the tree, and it picks the cheapest of three fills. A narrow
// range sets bits straight from the sorted run's positions. A wide one
// assembles each 64-position word from the raw values with branchless
// comparison bits — about half the rows miss, so a per-row `if` would pay
// a mispredict per miss. With at set (the positions an IVF probe will
// read; nil means every position) a range holding more entries than at,
// where at is under 1/atFillDiv of the column, is compared at those
// positions alone and sets no other bit; the bits are then exact only
// there.
func (c *AttributeColumn) FillRange(lo, hi int64, out *bitset.Bitset, at []int32) int {
	first, last := c.run(lo, hi)
	ulo, span := uint64(lo), uint64(hi)-uint64(lo)
	switch n := last - first; {
	case at != nil && n > len(at) && len(at)*atFillDiv < len(c.raw):
		c.fillAt(ulo, span, at, out)
	case n*wideFillDiv < len(c.raw):
		c.fillRun(first, last, out)
	default:
		c.fillWords(ulo, span, out)
	}
	return last - first
}

func (c *AttributeColumn) fillRun(first, last int, out *bitset.Bitset) {
	for _, p := range c.pos[first:last] {
		out.Set(int(p))
	}
}

// in is 1 when lo ≤ v ≤ hi (ulo = lo, span = hi-lo): v-lo ≤ hi-lo in wrapping
// unsigned arithmetic is one compare per row and exact for any bounds.
func in(v int64, ulo, span uint64) uint64 {
	if uint64(v)-ulo <= span {
		return 1 // compiles to a flagless SETcc
	}
	return 0
}

func (c *AttributeColumn) fillAt(ulo, span uint64, at []int32, out *bitset.Bitset) {
	for _, p := range at {
		out.SetWord(int(p)/64, in(c.raw[p], ulo, span)<<(uint(p)%64))
	}
}

func (c *AttributeColumn) fillWords(ulo, span uint64, out *bitset.Bitset) {
	full := len(c.raw) / 64
	for w := 0; w < full; w++ {
		vals := (*[64]int64)(c.raw[w*64:])
		var word uint64
		// Four comparison bits are combined before they join the word, so
		// the chain of ORs through word is 16 long, not 64.
		for j := 0; j < 64; j += 4 {
			word |= (in(vals[j], ulo, span) | in(vals[j+1], ulo, span)<<1 | in(vals[j+2], ulo, span)<<2 | in(vals[j+3], ulo, span)<<3) << uint(j)
		}
		out.SetWord(w, word)
	}
	if tail := c.raw[full*64:]; len(tail) > 0 {
		var word uint64
		for j, v := range tail {
			word |= in(v, ulo, span) << uint(j)
		}
		out.SetWord(full, word)
	}
}
