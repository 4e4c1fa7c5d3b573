package colstore

import (
	"math"
	"testing"
)

// predDecoder turns a fuzz byte tape into a predicate tree. Every byte
// sequence decodes to some valid tree (exhausted tape degrades to leaves)
// so the fuzzer explores structure, not parse failures.
type predDecoder struct {
	tape []byte
	pos  int
}

func (d *predDecoder) byte() byte {
	if d.pos >= len(d.tape) {
		return 0
	}
	b := d.tape[d.pos]
	d.pos++
	return b
}

func (d *predDecoder) int64() int64 {
	// Two tape bytes give a signed value spanning the datasets' key ranges
	// (ages 0..99, scores -1000..999) with room outside both; one in
	// sixteen is an int64 extreme, as a key of edgeDataset or as a bound
	// no key reaches.
	v := int64(d.byte())<<8 | int64(d.byte())
	if v%16 == 0 {
		return []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64}[v>>4%4]
	}
	return v%3000 - 1500
}

var fuzzPalette = []string{"red", "green", "blue", "cyan", "plum", "absent"}

func (d *predDecoder) pred(depth int) Pred {
	op := d.byte()
	if depth >= 5 {
		op %= 2 // leaves only
	}
	switch op % 5 {
	case 0:
		lo := d.int64()
		hi := lo + int64(d.byte())*8 // wraps past MaxInt64: an inverted range
		switch d.byte() % 8 {
		case 0:
			lo, hi = hi, lo // occasionally inverted (empty) ranges
		case 1:
			hi = d.int64() // independent bounds: wide ranges, extremes on both ends
		}
		return RangePred{Attr: int(d.byte() % 2), Lo: lo, Hi: hi}
	case 1:
		n := int(d.byte() % 4)
		vals := make([]string, 0, n)
		for i := 0; i < n; i++ {
			vals = append(vals, fuzzPalette[int(d.byte())%len(fuzzPalette)])
		}
		return InPred{Cat: 0, Values: vals}
	case 2:
		n := int(d.byte() % 4)
		ps := make([]Pred, 0, n)
		for i := 0; i < n; i++ {
			ps = append(ps, d.pred(depth+1))
		}
		return AndPred{Preds: ps}
	case 3:
		n := int(d.byte() % 4)
		ps := make([]Pred, 0, n)
		for i := 0; i < n; i++ {
			ps = append(ps, d.pred(depth+1))
		}
		return OrPred{Preds: ps}
	default:
		return NotPred{Pred: d.pred(depth + 1)}
	}
}

// FuzzPredCompile cross-checks the positional compiler against per-row
// naive evaluation of the raw values for arbitrary predicate trees. The
// tape's first byte picks the columns: row counts on either side of a word
// boundary (bits past Rows() must stay zero), duplicate-heavy and
// int64-extreme keys, so ranges land on both sides of FillRange's
// narrow/wide crossover.
func FuzzPredCompile(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{1, 2, 3, 0, 10, 20, 1, 2, 0, 1})
	f.Add([]byte{2, 4, 4, 3, 2, 0, 0, 0, 1, 1, 2, 9})
	f.Add([]byte{3, 0, 0, 16, 255, 1, 0, 32, 0})           // MinInt64 .. MaxInt64-1 over the edge keys
	f.Add([]byte{4, 0, 5, 220, 200, 0, 1})                 // wide fill on a 65-row column
	f.Add([]byte{5, 4, 0, 0, 0, 0, 0, 1})                  // Not over an empty column
	f.Add([]byte{6, 3, 2, 0, 5, 200, 9, 7, 0, 1, 2, 1, 5}) // Or of a range and an IN-list
	f.Add([]byte{})
	datasets := []*predCols{
		testDataset(700, 77), edgeDataset(700, 78), edgeDataset(64, 79), edgeDataset(63, 80),
		edgeDataset(65, 81), edgeDataset(0, 82), testDataset(1, 83), edgeDataset(129, 84),
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		d := &predDecoder{tape: tape}
		c := datasets[int(d.byte())%len(datasets)]
		c.check(t, "fuzz", d.pred(0))
	})
}
