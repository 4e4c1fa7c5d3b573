package core

import (
	"math/rand"
	"slices"
	"testing"

	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func catSchema(dim int) Schema {
	return Schema{
		VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: vec.L2}},
		AttrFields:   []string{"price"},
		CatFields:    []string{"brand"},
	}
}

var brands = []string{"acme", "globex", "umbrella", "initech"}

func mkCatEntities(n, dim int, seed int64) []Entity {
	r := rand.New(rand.NewSource(seed))
	out := make([]Entity, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		out[i] = Entity{
			ID:      int64(i + 1),
			Vectors: [][]float32{v},
			Attrs:   []int64{int64(r.Intn(1000))},
			Cats:    []string{brands[r.Intn(len(brands))]},
		}
	}
	return out
}

func TestCategoricalSchemaValidation(t *testing.T) {
	s := Schema{
		VectorFields: []VectorField{{Name: "v", Dim: 2}},
		CatFields:    []string{""},
	}
	if err := s.Validate(); err == nil {
		t.Error("empty categorical name accepted")
	}
	s = Schema{
		VectorFields: []VectorField{{Name: "v", Dim: 2}},
		AttrFields:   []string{"x"},
		CatFields:    []string{"x"},
	}
	if err := s.Validate(); err == nil {
		t.Error("duplicate field name across kinds accepted")
	}
	good := catSchema(4)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := good.CatFieldIndex("brand"); err != nil {
		t.Fatal(err)
	}
	if _, err := good.CatFieldIndex("nope"); err == nil {
		t.Error("unknown categorical field resolved")
	}
	// entity with missing cats rejected
	c, err := NewCollection("cv", good, nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert([]Entity{{ID: 1, Vectors: [][]float32{{1, 2, 3, 4}}, Attrs: []int64{1}}}); err == nil {
		t.Error("entity without categorical values accepted")
	}
}

func TestSearchCategorical(t *testing.T) {
	c, err := NewCollection("cat", catSchema(8), objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkCatEntities(300, 8, 1)
	c.Insert(ents)
	c.Flush()

	q := ents[17].Vectors[0]
	res, err := catHits(c, q, "brand", []string{"acme"}, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res {
		e, ok := c.Get(r.ID)
		if !ok || e.Cats[0] != "acme" {
			t.Fatalf("result %d is %v, want brand acme", r.ID, e.Cats)
		}
	}
	// IN over two values.
	res, err = catHits(c, q, "brand", []string{"acme", "globex"}, SearchOptions{K: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		e, _ := c.Get(r.ID)
		if e.Cats[0] != "acme" && e.Cats[0] != "globex" {
			t.Fatalf("IN filter violated: %v", e.Cats)
		}
	}
	// Unknown value → empty, not error.
	res, err = catHits(c, q, "brand", []string{"nonexistent"}, SearchOptions{K: 5})
	if err != nil || res != nil {
		t.Fatalf("unknown value: %v, %v", res, err)
	}
	// Errors.
	if _, err := catHits(c, q, "nope", []string{"x"}, SearchOptions{K: 5}); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := catHits(c, q, "brand", nil, SearchOptions{K: 5}); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := catHits(c, q, "brand", []string{"acme"}, SearchOptions{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

// TestRepeatedInValueAnswersEachRowOnce: an IN-list that names a value
// twice matches each row once, under strategy A and under strategy B, and
// answers what the list with the value once answers.
func TestRepeatedInValueAnswersEachRowOnce(t *testing.T) {
	for _, side := range []struct {
		strategy string
		prof     *plan.Profile
	}{
		{"A", fixedProfile(func(p *plan.Profile) { p.BitsetNsPerRow = 1e6 })},
		{"B", fixedProfile(func(p *plan.Profile) { p.RowOverheadNs = 1e6 })},
	} {
		cfg := testConfig()
		cfg.Planner = plan.New(plan.Config{Profile: side.prof})
		c, err := NewCollection("dupin", catSchema(8), objstore.NewMemory(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ents := mkCatEntities(300, 8, 1)
		if err := c.Insert(ents); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		q := ents[17].Vectors[0]
		query := func(values []string) []topk.Result {
			t.Helper()
			tr := obs.NewQueryRecord("categorical")
			res, err := catHits(c, q, "brand", values, SearchOptions{K: 10, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := tr.Attr("filter_strategy"); got != side.strategy {
				t.Fatalf("filter_strategy %q, want %s", got, side.strategy)
			}
			return res
		}
		once, twice := query([]string{"acme"}), query([]string{"acme", "acme"})
		ids := resultIDs(twice)
		if len(ids) != 10 || len(slices.Compact(ids)) != 10 {
			t.Fatalf("%s: IN [acme, acme] answered ids %v, want 10 distinct", side.strategy, resultIDs(twice))
		}
		sameHits(t, side.strategy+": IN [acme, acme] against IN [acme]", once, twice)
	}
}

func TestCategoricalExactMatchesBitmapPath(t *testing.T) {
	// Force both code paths (selective exact scan vs bitmap search) and
	// verify identical results.
	c, err := NewCollection("cat2", catSchema(8), objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkCatEntities(400, 8, 2)
	c.Insert(ents)
	c.Flush()
	q := ents[50].Vectors[0]
	// K*8 ≥ matches → exact path; tiny K → bitmap path. Compare overlap.
	exact, err := catHits(c, q, "brand", []string{"umbrella"}, SearchOptions{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	bitmap, err := catHits(c, q, "brand", []string{"umbrella"}, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(bitmap) == 0 {
		t.Fatal("bitmap path returned nothing")
	}
	for i, r := range bitmap {
		if r != exact[i] {
			t.Fatalf("paths disagree at rank %d: %v vs %v", i, r, exact[i])
		}
	}
}

func TestCategoricalSurvivesMergeAndPersistence(t *testing.T) {
	store := objstore.NewMemory()
	c, err := NewCollection("cat3", catSchema(4), store, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Four flushes → one merge.
	for b := 0; b < 4; b++ {
		ents := mkCatEntities(64, 4, int64(10+b))
		for i := range ents {
			ents[i].ID = int64(b*64 + i + 1)
		}
		c.Insert(ents)
		c.Flush()
	}
	st := c.Stats()
	if st.Segments != 1 {
		t.Fatalf("expected merged segment, got %+v", st)
	}
	// Categorical data must survive the merge.
	e, ok := c.Get(130)
	if !ok || e.Cats[0] == "" {
		t.Fatalf("categorical lost in merge: %+v", e)
	}
	// And the restore path.
	keys := c.SegmentKeys()
	restored, err := RestoreCollection("cat3r", catSchema(4), store, testConfig(), keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	e2, ok := restored.Get(130)
	if !ok || e2.Cats[0] != e.Cats[0] {
		t.Fatalf("categorical lost in restore: %+v vs %+v", e2, e)
	}
	res, err := catHits(restored, e.Vectors[0], "brand", []string{e.Cats[0]}, SearchOptions{K: 3})
	if err != nil || len(res) == 0 || res[0].ID != 130 {
		t.Fatalf("restored categorical search: %v, %v", res, err)
	}
}

func TestCategoricalWithDeletes(t *testing.T) {
	c, err := NewCollection("cat4", catSchema(4), objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkCatEntities(100, 4, 3)
	c.Insert(ents)
	c.Flush()
	// Delete every acme entity, then verify the filter never returns them.
	var acme []int64
	for _, e := range ents {
		if e.Cats[0] == "acme" {
			acme = append(acme, e.ID)
		}
	}
	c.Delete(acme[:len(acme)/2])
	c.Flush()
	res, err := catHits(c, ents[0].Vectors[0], "brand", []string{"acme"}, SearchOptions{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	deleted := map[int64]bool{}
	for _, id := range acme[:len(acme)/2] {
		deleted[id] = true
	}
	for _, r := range res {
		if deleted[r.ID] {
			t.Fatalf("deleted id %d returned", r.ID)
		}
	}
}

// catHits is Query of q with an IN-list on the categorical field named cat.
func catHits(c *Collection, q []float32, cat string, values []string, opts SearchOptions) ([]topk.Result, error) {
	pred, err := c.Schema().InPred(cat, values)
	if err != nil {
		return nil, err
	}
	return hitsOf(c, Request{Vector: q, Pred: pred, SearchOptions: opts})
}
