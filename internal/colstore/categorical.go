package colstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
)

// CategoricalColumn stores one string-valued attribute with an inverted
// index from value to sorted row-ID postings — the categorical-attribute
// support the paper lists as future work ("we plan to support categorical
// attributes with indexes like inverted lists or bitmaps", Sec. 2.1).
type CategoricalColumn struct {
	dict map[string]*posting
	rows int
}

// posting is one value's inverted list: the row IDs holding it, sorted, and
// beside each its build position (its index in the slice handed to
// BuildCategoricalColumn), which is what the predicate compiler sets bits
// from.
type posting struct {
	rows []int64
	pos  []int32
}

// BuildCategoricalColumn indexes values; values[i] belongs to ids[i]
// (row position when ids is nil) and sits at build position i.
func BuildCategoricalColumn(values []string, ids []int64) *CategoricalColumn {
	c := &CategoricalColumn{dict: map[string]*posting{}, rows: len(values)}
	for i, v := range values {
		p := c.dict[v]
		if p == nil {
			p = &posting{}
			c.dict[v] = p
		}
		p.pos = append(p.pos, int32(i))
	}
	row := func(q int32) int64 {
		if ids != nil {
			return ids[q]
		}
		return int64(q)
	}
	for _, p := range c.dict {
		slices.SortFunc(p.pos, func(a, b int32) int { return cmp.Compare(row(a), row(b)) })
		p.rows = make([]int64, len(p.pos))
		for i, q := range p.pos {
			p.rows[i] = row(q)
		}
	}
	return c
}

// Len returns the number of rows indexed.
func (c *CategoricalColumn) Len() int { return c.rows }

// Rows returns the postings for one value (shared slice: do not mutate).
func (c *CategoricalColumn) Rows(value string) []int64 {
	if p := c.dict[value]; p != nil {
		return p.rows
	}
	return nil
}

// Positions returns the build positions of the rows holding value, aligned
// with Rows(value) (shared slice: do not mutate).
func (c *CategoricalColumn) Positions(value string) []int32 {
	if p := c.dict[value]; p != nil {
		return p.pos
	}
	return nil
}

// Count returns the posting length for one value without materializing —
// the selectivity estimate for cost-based planning.
func (c *CategoricalColumn) Count(values ...string) int {
	n := 0
	for _, v := range values {
		n += len(c.Rows(v))
	}
	return n
}

// MarshalStrings serializes a row-aligned string array (raw categorical
// values travel with the segment like RawAttrs do).
func MarshalStrings(values []string) []byte {
	var buf []byte
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(values)))
	for _, v := range values {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// UnmarshalStrings reverses MarshalStrings.
func UnmarshalStrings(data []byte) ([]string, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("colstore: string column too short")
	}
	n := int(binary.LittleEndian.Uint32(data))
	// Every value carries a 4-byte length: bound n by the bytes present
	// before allocating for it (the count is untrusted input).
	if n > (len(data)-4)/4 {
		return nil, fmt.Errorf("colstore: string column claims %d values in %d bytes", n, len(data))
	}
	off := 4
	out := make([]string, n)
	for i := 0; i < n; i++ {
		if off+4 > len(data) {
			return nil, fmt.Errorf("colstore: string column truncated")
		}
		l := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if off+l > len(data) {
			return nil, fmt.Errorf("colstore: string value overruns")
		}
		out[i] = string(data[off : off+l])
		off += l
	}
	if off != len(data) {
		return nil, fmt.Errorf("colstore: string column has %d trailing bytes", len(data)-off)
	}
	return out, nil
}
