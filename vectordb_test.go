package vectordb_test

import (
	"fmt"
	"math/rand"
	"testing"

	"vectordb"
)

func testDB(t *testing.T) *vectordb.DB {
	t.Helper()
	db := vectordb.Open(nil)
	t.Cleanup(func() { db.Close() })
	return db
}

func randVec(r *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db := testDB(t)
	col, err := db.CreateCollection("items", vectordb.Schema{
		VectorFields: []vectordb.VectorField{{Name: "embedding", Dim: 16, Metric: vectordb.L2}},
		AttrFields:   []string{"price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	ents := make([]vectordb.Entity, 200)
	for i := range ents {
		ents[i] = vectordb.Entity{
			ID:      int64(i + 1),
			Vectors: [][]float32{randVec(r, 16)},
			Attrs:   []int64{int64(i)},
		}
	}
	if err := col.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if col.Count() != 200 {
		t.Fatalf("Count = %d", col.Count())
	}
	hits, err := col.Search(ents[42].Vectors[0], vectordb.SearchRequest{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].ID != 43 || hits[0].Distance != 0 {
		t.Fatalf("hits = %v", hits)
	}
	// Attribute-filtered search.
	hits, err = col.Search(ents[42].Vectors[0], vectordb.SearchRequest{
		K:      3,
		Filter: &vectordb.AttrRange{Attr: "price", Lo: 100, Hi: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hits {
		e, ok := col.Get(h.ID)
		if !ok || e.Attrs[0] < 100 || e.Attrs[0] > 150 {
			t.Fatalf("filter violated: %v", h)
		}
	}
	// Delete + stats.
	col.Delete([]int64{43})
	col.Flush()
	if _, ok := col.Get(43); ok {
		t.Fatal("deleted entity visible")
	}
	st := col.Stats()
	if st.LiveRows != 199 {
		t.Fatalf("stats = %+v", st)
	}
	// Index build and search via index.
	if err := col.BuildIndex("embedding", "IVF_FLAT", map[string]string{"nlist": "8"}); err != nil {
		t.Fatal(err)
	}
	hits, err = col.Search(ents[10].Vectors[0], vectordb.SearchRequest{K: 1, Nprobe: 8})
	if err != nil || len(hits) != 1 || hits[0].ID != 11 {
		t.Fatalf("indexed search = %v, %v", hits, err)
	}
}

func TestPublicMultiVector(t *testing.T) {
	db := testDB(t)
	col, err := db.CreateCollection("recipes", vectordb.Schema{
		VectorFields: []vectordb.VectorField{
			{Name: "text", Dim: 4, Metric: vectordb.IP},
			{Name: "image", Dim: 4, Metric: vectordb.IP},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Insert([]vectordb.Entity{
		{ID: 1, Vectors: [][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}}},
		{ID: 2, Vectors: [][]float32{{0, 0, 1, 0}, {0, 0, 0, 1}}},
	})
	col.Flush()
	hits, err := col.SearchMulti([][]float32{{1, 0, 0, 0}, {0, 1, 0, 0}}, []float32{1, 1}, 1)
	if err != nil || len(hits) != 1 || hits[0].ID != 1 {
		t.Fatalf("SearchMulti = %v, %v", hits, err)
	}
}

// TestPublicSearchANDsFilters: a range filter and a categorical filter given
// together both apply: ten rows with price = id, every brand "acme", price
// 5..9 AND brand IN acme answer ids 5–9 only.
func TestPublicSearchANDsFilters(t *testing.T) {
	db := testDB(t)
	col, err := db.CreateCollection("shop", vectordb.Schema{
		VectorFields: []vectordb.VectorField{{Name: "v", Dim: 2}},
		AttrFields:   []string{"price"},
		CatFields:    []string{"brand"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []vectordb.Entity
	for i := 0; i < 10; i++ {
		rows = append(rows, vectordb.Entity{ID: int64(i), Vectors: [][]float32{{float32(i), 0}}, Attrs: []int64{int64(i)}, Cats: []string{"acme"}})
	}
	if err := col.Insert(rows); err != nil {
		t.Fatal(err)
	}
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	hits, err := col.Search([]float32{0, 0}, vectordb.SearchRequest{K: 10,
		Filter: &vectordb.AttrRange{Attr: "price", Lo: 5, Hi: 9}, Cat: &vectordb.CatFilter{Attr: "brand", Values: []string{"acme"}}})
	var ids []int64
	for _, h := range hits {
		ids = append(ids, h.ID)
	}
	if err != nil || fmt.Sprint(ids) != "[5 6 7 8 9]" {
		t.Fatalf("price 5..9 AND brand IN acme = %v, %v; want ids 5–9", ids, err)
	}
}

func TestOpenPathPersistsSegments(t *testing.T) {
	dir := t.TempDir()
	db, err := vectordb.OpenPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	col, err := db.CreateCollection("p", vectordb.Schema{
		VectorFields: []vectordb.VectorField{{Name: "v", Dim: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	col.Insert([]vectordb.Entity{{ID: 1, Vectors: [][]float32{{1, 2}}}})
	col.Flush()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaErrorsSurface(t *testing.T) {
	db := testDB(t)
	if _, err := db.CreateCollection("bad", vectordb.Schema{}); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := db.CreateCollection("bad2", vectordb.Schema{
		VectorFields: []vectordb.VectorField{{Name: "v", Dim: 4, Metric: "BOGUS"}},
	}); err == nil {
		t.Error("bogus metric accepted")
	}
	if _, err := db.Collection("missing"); err == nil {
		t.Error("missing collection resolved")
	}
}

func TestIndexTypesListed(t *testing.T) {
	types := vectordb.IndexTypes()
	if len(types) != 7 {
		t.Fatalf("IndexTypes = %v", types)
	}
}

func Example() {
	db := vectordb.Open(nil)
	defer db.Close()
	col, _ := db.CreateCollection("quick", vectordb.Schema{
		VectorFields: []vectordb.VectorField{{Name: "v", Dim: 2}},
	})
	col.Insert([]vectordb.Entity{
		{ID: 1, Vectors: [][]float32{{0, 0}}},
		{ID: 2, Vectors: [][]float32{{3, 4}}},
	})
	col.Flush()
	hits, _ := col.Search([]float32{0.1, 0.1}, vectordb.SearchRequest{K: 1})
	fmt.Println(hits[0].ID)
	// Output: 1
}
