package colstore

import (
	"fmt"

	"vectordb/internal/bitset"
)

// Pred is a boolean predicate over a segment's attribute columns. The
// compiler turns a Pred tree into a dense bitset over build positions so
// the filtered-search pushdown (Sec. 4.1 strategies B/D/E) can test
// membership with one word load instead of a map probe per row.
type Pred interface {
	// predNode is a marker; the compiler switches on the concrete type.
	predNode()
}

// RangePred matches rows whose numeric attribute Attr satisfies
// Lo ≤ value ≤ Hi (inclusive on both ends, like RangeRows).
type RangePred struct {
	Attr   int
	Lo, Hi int64
}

// InPred matches rows whose categorical attribute Cat equals any of
// Values (SQL IN over the inverted dictionary).
type InPred struct {
	Cat    int
	Values []string
}

// AndPred is the conjunction of its children; an empty conjunction is true.
type AndPred struct{ Preds []Pred }

// OrPred is the disjunction of its children; an empty disjunction is false.
type OrPred struct{ Preds []Pred }

// NotPred negates its child.
type NotPred struct{ Pred Pred }

func (RangePred) predNode() {}
func (InPred) predNode()    {}
func (AndPred) predNode()   {}
func (OrPred) predNode()    {}
func (NotPred) predNode()   {}

// PredColumns is the column access a segment exposes to the compiler.
// Every column was built over the segment's Rows() values in build order
// and carries each entry's build position — the bit index every scan path
// agrees on — so compiling never maps a row ID back to a position.
type PredColumns interface {
	Rows() int
	AttrColumn(attr int) *AttributeColumn
	CatColumn(cat int) *CategoricalColumn
}

// CompilePred evaluates p against cols into out, resized to cols.Rows().
// Leaves set bits from the columns' own positions (FillRange, the
// dictionary postings); interior nodes combine children with the
// word-parallel bitset ops, using pooled scratch for siblings. With at
// nil every bit of out is exact; with at set only the bits at those
// positions are — the rest are whatever the leaves and a Not left there,
// so the caller must read no other bit.
func CompilePred(p Pred, cols PredColumns, out *bitset.Bitset, at []int32) error {
	out.Reset(cols.Rows())
	return compilePred(p, cols, out, at)
}

// compilePred fills out (already sized and zeroed) with p's matches.
func compilePred(p Pred, cols PredColumns, out *bitset.Bitset, at []int32) error {
	switch p := p.(type) {
	case RangePred:
		col := cols.AttrColumn(p.Attr)
		if col == nil {
			return fmt.Errorf("colstore: predicate references unknown attribute %d", p.Attr)
		}
		if col.Len() != out.Len() {
			return fmt.Errorf("colstore: attribute %d has %d entries for %d rows", p.Attr, col.Len(), out.Len())
		}
		col.FillRange(p.Lo, p.Hi, out, at)
		return nil
	case InPred:
		col := cols.CatColumn(p.Cat)
		if col == nil {
			return fmt.Errorf("colstore: predicate references unknown categorical %d", p.Cat)
		}
		if col.Len() != out.Len() {
			return fmt.Errorf("colstore: categorical %d has %d entries for %d rows", p.Cat, col.Len(), out.Len())
		}
		for _, v := range p.Values {
			for _, pos := range col.Positions(v) {
				out.Set(int(pos))
			}
		}
		return nil
	case AndPred:
		if len(p.Preds) == 0 {
			out.SetAll() // empty conjunction is true
			return nil
		}
		if err := compilePred(p.Preds[0], cols, out, at); err != nil {
			return err
		}
		scratch := bitset.Get(out.Len())
		defer bitset.Put(scratch)
		for _, child := range p.Preds[1:] {
			scratch.Reset(out.Len())
			if err := compilePred(child, cols, scratch, at); err != nil {
				return err
			}
			out.And(scratch)
		}
		return nil
	case OrPred:
		if len(p.Preds) == 0 {
			return nil // empty disjunction is false
		}
		if err := compilePred(p.Preds[0], cols, out, at); err != nil {
			return err
		}
		scratch := bitset.Get(out.Len())
		defer bitset.Put(scratch)
		for _, child := range p.Preds[1:] {
			scratch.Reset(out.Len())
			if err := compilePred(child, cols, scratch, at); err != nil {
				return err
			}
			out.Or(scratch)
		}
		return nil
	case NotPred:
		if err := compilePred(p.Pred, cols, out, at); err != nil {
			return err
		}
		out.Complement()
		return nil
	case nil:
		return fmt.Errorf("colstore: nil predicate")
	default:
		return fmt.Errorf("colstore: unknown predicate type %T", p)
	}
}

// EstimatePred returns an upper-bound match count without compiling —
// the selectivity input for the cost-based strategy D. Leaves use the
// columns' count paths (zone-map CountRange, posting lengths); And takes
// the tightest child, Or the capped sum, Not the complement of its
// child's bound. Unknown columns estimate as matching everything so the
// error surfaces at compile time, not planning time.
func EstimatePred(p Pred, cols PredColumns) int {
	rows := cols.Rows()
	switch p := p.(type) {
	case RangePred:
		col := cols.AttrColumn(p.Attr)
		if col == nil {
			return rows
		}
		return col.CountRange(p.Lo, p.Hi)
	case InPred:
		col := cols.CatColumn(p.Cat)
		if col == nil {
			return rows
		}
		n := col.Count(p.Values...)
		if n > rows {
			n = rows
		}
		return n
	case AndPred:
		est := rows
		for _, child := range p.Preds {
			if e := EstimatePred(child, cols); e < est {
				est = e
			}
		}
		return est
	case OrPred:
		est := 0
		for _, child := range p.Preds {
			est += EstimatePred(child, cols)
			if est >= rows {
				return rows
			}
		}
		return est
	case NotPred:
		return rows - EstimatePred(p.Pred, cols)
	default:
		return rows
	}
}
