package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vectordb/internal/bitset"
)

// predCols is a segment stand-in: row-aligned raw values per column, with
// row IDs = 10 + 2·pos so a compile that confused row IDs with build
// positions would show.
type predCols struct {
	attrRaw [][]int64
	catRaw  [][]string
	attrs   []*AttributeColumn
	cats    []*CategoricalColumn
	rows    int
}

func newPredCols(attrRaw [][]int64, catRaw [][]string) *predCols {
	c := &predCols{attrRaw: attrRaw, catRaw: catRaw}
	if len(attrRaw) > 0 {
		c.rows = len(attrRaw[0])
	} else if len(catRaw) > 0 {
		c.rows = len(catRaw[0])
	}
	ids := make([]int64, c.rows)
	for i := range ids {
		ids[i] = 10 + 2*int64(i)
	}
	for _, vals := range attrRaw {
		c.attrs = append(c.attrs, BuildAttributeColumn(vals, ids))
	}
	for _, vals := range catRaw {
		c.cats = append(c.cats, BuildCategoricalColumn(vals, ids))
	}
	return c
}

func (c *predCols) Rows() int { return c.rows }

func (c *predCols) AttrColumn(attr int) *AttributeColumn {
	if attr < 0 || attr >= len(c.attrs) {
		return nil
	}
	return c.attrs[attr]
}

func (c *predCols) CatColumn(cat int) *CategoricalColumn {
	if cat < 0 || cat >= len(c.cats) {
		return nil
	}
	return c.cats[cat]
}

// evalNaive evaluates p for build position i straight off the raw arrays.
func (c *predCols) evalNaive(p Pred, i int) bool {
	switch p := p.(type) {
	case RangePred:
		v := c.attrRaw[p.Attr][i]
		return p.Lo <= v && v <= p.Hi
	case InPred:
		v := c.catRaw[p.Cat][i]
		for _, want := range p.Values {
			if v == want {
				return true
			}
		}
		return false
	case AndPred:
		for _, child := range p.Preds {
			if !c.evalNaive(child, i) {
				return false
			}
		}
		return true
	case OrPred:
		for _, child := range p.Preds {
			if c.evalNaive(child, i) {
				return true
			}
		}
		return false
	case NotPred:
		return !c.evalNaive(p.Pred, i)
	}
	panic("unknown pred")
}

func (c *predCols) check(t *testing.T, tag string, p Pred) {
	t.Helper()
	out := bitset.New(c.rows)
	if err := CompilePred(p, c, out, nil); err != nil {
		t.Fatalf("%s: CompilePred: %v", tag, err)
	}
	if out.Len() != c.rows {
		t.Fatalf("%s: compiled bitset over %d positions, want %d", tag, out.Len(), c.rows)
	}
	count := 0
	for i := 0; i < c.rows; i++ {
		want := c.evalNaive(p, i)
		if out.Test(i) != want {
			t.Fatalf("%s: position %d: compiled %v, naive %v (pred %#v)", tag, i, out.Test(i), want, p)
		}
		if want {
			count++
		}
	}
	// Count walks whole words, so a bit set past Rows() shows up here.
	if out.Count() != count {
		t.Fatalf("%s: Count() = %d, naive count %d (pred %#v)", tag, out.Count(), count, p)
	}
}

func testDataset(n int, seed int64) *predCols {
	r := rand.New(rand.NewSource(seed))
	age := make([]int64, n)
	score := make([]int64, n)
	color := make([]string, n)
	palette := []string{"red", "green", "blue", "cyan", "plum"}
	for i := 0; i < n; i++ {
		age[i] = int64(r.Intn(100))
		score[i] = int64(r.Intn(2000)) - 1000
		color[i] = palette[r.Intn(len(palette))]
	}
	return newPredCols([][]int64{age, score}, [][]string{color})
}

func TestCompilePred(t *testing.T) {
	c := testDataset(1500, 71)
	cases := map[string]Pred{
		"range":       RangePred{Attr: 0, Lo: 20, Hi: 60},
		"range_empty": RangePred{Attr: 0, Lo: 500, Hi: 600},
		"range_all":   RangePred{Attr: 0, Lo: -1, Hi: 1000},
		"range_inv":   RangePred{Attr: 0, Lo: 60, Hi: 20},
		"in_one":      InPred{Cat: 0, Values: []string{"red"}},
		"in_many":     InPred{Cat: 0, Values: []string{"red", "blue", "absent"}},
		"in_none":     InPred{Cat: 0, Values: nil},
		"and": AndPred{Preds: []Pred{
			RangePred{Attr: 0, Lo: 10, Hi: 80},
			RangePred{Attr: 1, Lo: -200, Hi: 400},
		}},
		"or": OrPred{Preds: []Pred{
			RangePred{Attr: 0, Lo: 0, Hi: 5},
			InPred{Cat: 0, Values: []string{"plum"}},
		}},
		"not":       NotPred{Pred: RangePred{Attr: 0, Lo: 30, Hi: 100}},
		"and_empty": AndPred{},
		"or_empty":  OrPred{},
		"nested": AndPred{Preds: []Pred{
			OrPred{Preds: []Pred{
				RangePred{Attr: 1, Lo: -1000, Hi: -500},
				AndPred{Preds: []Pred{
					InPred{Cat: 0, Values: []string{"green", "cyan"}},
					NotPred{Pred: RangePred{Attr: 0, Lo: 0, Hi: 49}},
				}},
			}},
			NotPred{Pred: InPred{Cat: 0, Values: []string{"red"}}},
		}},
		"double_not": NotPred{Pred: NotPred{Pred: RangePred{Attr: 1, Lo: 0, Hi: 100}}},
	}
	for name, p := range cases {
		c.check(t, name, p)
	}
}

func TestCompilePredErrors(t *testing.T) {
	c := testDataset(50, 72)
	out := bitset.New(0)
	bad := []Pred{
		RangePred{Attr: 9, Lo: 0, Hi: 1},
		InPred{Cat: 3, Values: []string{"x"}},
		AndPred{Preds: []Pred{RangePred{Attr: 0, Lo: 0, Hi: 1}, InPred{Cat: -1}}},
		NotPred{Pred: RangePred{Attr: -1}},
		nil,
	}
	for i, p := range bad {
		if err := CompilePred(p, c, out, nil); err == nil {
			t.Fatalf("case %d: no error for invalid predicate %#v", i, p)
		}
	}
}

// TestCompilePredRowMismatch: a column built over a different row count
// than the segment reports is refused, not compiled into the wrong bits.
func TestCompilePredRowMismatch(t *testing.T) {
	c := &predCols{
		attrs: []*AttributeColumn{BuildAttributeColumn([]int64{1, 1, 1, 1}, nil)},
		cats:  []*CategoricalColumn{BuildCategoricalColumn([]string{"x", "x", "x", "x"}, nil)},
		rows:  2,
	}
	out := bitset.New(2)
	for _, p := range []Pred{RangePred{Attr: 0, Lo: 0, Hi: 2}, InPred{Cat: 0, Values: []string{"x"}}} {
		if err := CompilePred(p, c, out, nil); err == nil {
			t.Fatalf("%#v compiled against a column of the wrong length", p)
		}
	}
}

// edgeDataset is the oracle's hard case: attribute 0 mixes the int64
// extremes with small negative and positive keys, attribute 1 is four
// heavily duplicated keys, and the categorical has an empty string.
func edgeDataset(n int, seed int64) *predCols {
	r := rand.New(rand.NewSource(seed))
	edge := []int64{math.MinInt64, math.MinInt64 + 1, -7, -1, 0, 1, 7, math.MaxInt64 - 1, math.MaxInt64}
	wide := make([]int64, n)
	dup := make([]int64, n)
	color := make([]string, n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			wide[i] = edge[r.Intn(len(edge))]
		} else {
			wide[i] = int64(r.Intn(2000)) - 1000
		}
		dup[i] = int64(r.Intn(4)) - 2
		color[i] = []string{"red", "", "blue"}[r.Intn(3)]
	}
	return newPredCols([][]int64{wide, dup}, [][]string{color})
}

// TestFillRangeOracle is the differential test of the positional compile
// against "filter rows by raw value": duplicate and negative keys, int64
// extremes as keys and as bounds, inverted ranges, row counts on every
// side of a word boundary, and ranges on both sides of the narrow/wide
// crossover (the count is asserted, so each path is known to have run).
func TestFillRangeOracle(t *testing.T) {
	bounds := []int64{math.MinInt64, math.MinInt64 + 1, -1000, -8, -2, -1, 0, 1, 6, 999, math.MaxInt64 - 1, math.MaxInt64}
	narrow, wide := 0, 0
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4096 + 37} {
		c := edgeDataset(n, int64(100+n))
		for attr := 0; attr < 2; attr++ {
			for _, lo := range bounds {
				for _, hi := range bounds {
					p := RangePred{Attr: attr, Lo: lo, Hi: hi}
					c.check(t, fmt.Sprintf("n=%d", n), p)
					if m := c.attrs[attr].CountRange(lo, hi); m*wideFillDiv < n {
						narrow++
					} else {
						wide++
					}
				}
			}
		}
		// Trees over the same columns go through the same oracle.
		for name, p := range map[string]Pred{
			"and":    AndPred{Preds: []Pred{RangePred{Attr: 0, Lo: math.MinInt64, Hi: 0}, RangePred{Attr: 1, Lo: -1, Hi: 1}}},
			"or":     OrPred{Preds: []Pred{RangePred{Attr: 0, Lo: math.MaxInt64, Hi: math.MaxInt64}, InPred{Cat: 0, Values: []string{""}}}},
			"not":    NotPred{Pred: RangePred{Attr: 1, Lo: 0, Hi: 0}},
			"not_in": NotPred{Pred: InPred{Cat: 0, Values: []string{"red", "blue"}}},
			"nested": AndPred{Preds: []Pred{
				NotPred{Pred: RangePred{Attr: 0, Lo: -1, Hi: math.MaxInt64}},
				OrPred{Preds: []Pred{InPred{Cat: 0, Values: []string{"red"}}, RangePred{Attr: 1, Lo: 5, Hi: -5}}},
			}},
		} {
			c.check(t, fmt.Sprintf("n=%d %s", n, name), p)
		}
	}
	if narrow == 0 || wide == 0 {
		t.Fatalf("crossover not straddled: %d narrow, %d wide compiles", narrow, wide)
	}
}

// TestFillRangeKeepsBits: FillRange ORs into out — what an OrPred sibling
// already set survives on both fill paths.
func TestFillRangeKeepsBits(t *testing.T) {
	values := make([]int64, 200)
	for i := range values {
		values[i] = int64(i)
	}
	col := BuildAttributeColumn(values, nil)
	for _, hi := range []int64{3, 150} { // narrow, wide
		out := bitset.New(len(values))
		out.Set(199)
		if got := col.FillRange(0, hi, out, nil); got != int(hi)+1 {
			t.Fatalf("FillRange(0,%d) = %d", hi, got)
		}
		if !out.Test(199) || out.Count() != int(hi)+2 {
			t.Fatalf("FillRange(0,%d) dropped a set bit: count %d", hi, out.Count())
		}
	}
}

func TestEstimatePred(t *testing.T) {
	c := testDataset(1200, 73)
	exact := func(p Pred) int {
		n := 0
		for i := 0; i < c.rows; i++ {
			if c.evalNaive(p, i) {
				n++
			}
		}
		return n
	}
	// Leaves are exact.
	for _, p := range []Pred{
		RangePred{Attr: 0, Lo: 25, Hi: 70},
		InPred{Cat: 0, Values: []string{"red", "blue"}},
	} {
		if got, want := EstimatePred(p, c), exact(p); got != want {
			t.Fatalf("%#v: estimate %d, want exact %d", p, got, want)
		}
	}
	// And/Or bound the true count from above.
	for _, p := range []Pred{
		AndPred{Preds: []Pred{RangePred{Attr: 0, Lo: 0, Hi: 50}, RangePred{Attr: 1, Lo: 0, Hi: 1000}}},
		OrPred{Preds: []Pred{RangePred{Attr: 0, Lo: 0, Hi: 9}, InPred{Cat: 0, Values: []string{"plum"}}}},
	} {
		got, want := EstimatePred(p, c), exact(p)
		if got < want {
			t.Fatalf("%#v: estimate %d below true count %d", p, got, want)
		}
		if got > c.rows {
			t.Fatalf("%#v: estimate %d exceeds rows %d", p, got, c.rows)
		}
	}
	// Unknown columns degrade to "everything matches".
	if EstimatePred(RangePred{Attr: 7}, c) != c.rows {
		t.Fatal("unknown attribute must estimate as full segment")
	}
}
