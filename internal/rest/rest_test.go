package rest_test

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"vectordb/client"
	"vectordb/internal/rest"
)

// The REST tests drive the server through the public Go SDK, covering both
// layers end to end.

func newServer(t *testing.T) *client.Client {
	t.Helper()
	srv := httptest.NewServer(rest.NewServer(nil))
	t.Cleanup(srv.Close)
	return client.New(srv.URL)
}

func TestHealthz(t *testing.T) {
	c := newServer(t)
	if !c.Healthy() {
		t.Fatal("server not healthy")
	}
}

func TestCollectionLifecycle(t *testing.T) {
	c := newServer(t)
	if err := c.CreateCollection("items", []client.VectorField{{Name: "v", Dim: 4}}, []string{"price"}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateCollection("items", []client.VectorField{{Name: "v", Dim: 4}}, nil); err == nil {
		t.Fatal("duplicate collection accepted")
	}
	names, err := c.ListCollections()
	if err != nil || len(names) != 1 || names[0] != "items" {
		t.Fatalf("ListCollections = %v, %v", names, err)
	}
	if err := c.DropCollection("items"); err != nil {
		t.Fatal(err)
	}
	if err := c.DropCollection("items"); err == nil {
		t.Fatal("double drop accepted")
	}
}

func TestInsertSearchFlow(t *testing.T) {
	c := newServer(t)
	if err := c.CreateCollection("items", []client.VectorField{{Name: "v", Dim: 2}}, []string{"price"}); err != nil {
		t.Fatal(err)
	}
	ents := []client.Entity{
		{ID: 1, Vectors: [][]float32{{0, 0}}, Attrs: []int64{10}},
		{ID: 2, Vectors: [][]float32{{1, 1}}, Attrs: []int64{20}},
		{ID: 3, Vectors: [][]float32{{5, 5}}, Attrs: []int64{30}},
	}
	if err := c.Insert("items", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Search("items", []float32{0.9, 0.9}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 2 || res[1].ID != 1 {
		t.Fatalf("search = %v", res)
	}
	// Attribute filtering: only price ≥ 25 qualifies.
	res, err = c.Search("items", []float32{0.9, 0.9}, 2, &client.SearchOptions{
		Filter: &client.Filter{Attr: "price", Lo: 25, Hi: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 3 {
		t.Fatalf("filtered search = %v", res)
	}
	// Delete and re-check.
	if err := c.Delete("items", []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("items"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Search("items", []float32{0.9, 0.9}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == 2 {
			t.Fatal("deleted entity still returned")
		}
	}
	st, err := c.Stats("items")
	if err != nil {
		t.Fatal(err)
	}
	if st.LiveRows != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiVectorSearchEndpoint(t *testing.T) {
	c := newServer(t)
	fields := []client.VectorField{
		{Name: "text", Dim: 2, Metric: "IP"},
		{Name: "image", Dim: 2, Metric: "IP"},
	}
	if err := c.CreateCollection("recipes", fields, nil); err != nil {
		t.Fatal(err)
	}
	ents := []client.Entity{
		{ID: 1, Vectors: [][]float32{{1, 0}, {0, 1}}},
		{ID: 2, Vectors: [][]float32{{0, 1}, {1, 0}}},
	}
	if err := c.Insert("recipes", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("recipes"); err != nil {
		t.Fatal(err)
	}
	res, err := c.SearchMulti("recipes", [][]float32{{1, 0}, {0, 1}}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("multi search = %v", res)
	}
}

func TestBuildIndexEndpoint(t *testing.T) {
	c := newServer(t)
	if err := c.CreateCollection("x", []client.VectorField{{Name: "v", Dim: 8}}, nil); err != nil {
		t.Fatal(err)
	}
	ents := make([]client.Entity, 64)
	for i := range ents {
		v := make([]float32, 8)
		v[0] = float32(i)
		ents[i] = client.Entity{ID: int64(i + 1), Vectors: [][]float32{v}}
	}
	if err := c.Insert("x", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("x"); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex("x", "v", "HNSW", map[string]string{"m": "8"}); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex("x", "v", "NOPE", nil); err == nil {
		t.Fatal("unknown index type accepted")
	}
	res, err := c.Search("x", ents[10].Vectors[0], 1, &client.SearchOptions{Ef: 32})
	if err != nil || len(res) != 1 || res[0].ID != 11 {
		t.Fatalf("post-index search = %v, %v", res, err)
	}
}

func TestErrorPaths(t *testing.T) {
	c := newServer(t)
	if err := c.Insert("missing", nil); err == nil {
		t.Error("insert to missing collection accepted")
	}
	if _, err := c.Search("missing", []float32{1}, 1, nil); err == nil {
		t.Error("search on missing collection accepted")
	}
	if err := c.CreateCollection("bad", nil, nil); err == nil {
		t.Error("schema without vector fields accepted")
	}
	if err := c.CreateCollection("bad2", []client.VectorField{{Name: "v", Dim: 2, Metric: "XX"}}, nil); err == nil {
		t.Error("unknown metric accepted")
	}
	if err := c.CreateCollection("ok", []client.VectorField{{Name: "v", Dim: 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search("ok", []float32{1, 2, 3}, 1, nil); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, err := c.Search("ok", []float32{1, 2}, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCategoricalFilterEndpoint(t *testing.T) {
	c := newServer(t)
	err := c.CreateCollectionFull("shop",
		[]client.VectorField{{Name: "v", Dim: 2}}, []string{"price"}, []string{"brand"})
	if err != nil {
		t.Fatal(err)
	}
	ents := []client.Entity{
		{ID: 1, Vectors: [][]float32{{0, 0}}, Attrs: []int64{10}, Cats: []string{"acme"}},
		{ID: 2, Vectors: [][]float32{{0.1, 0.1}}, Attrs: []int64{20}, Cats: []string{"globex"}},
		{ID: 3, Vectors: [][]float32{{0.2, 0.2}}, Attrs: []int64{30}, Cats: []string{"acme"}},
	}
	if err := c.Insert("shop", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("shop"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Search("shop", []float32{0, 0}, 3, &client.SearchOptions{
		CatFilter: &rest.CatFilterJSON{Attr: "brand", Values: []string{"acme"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 3 {
		t.Fatalf("categorical search = %v", res)
	}
	// Unknown categorical field surfaces as an error.
	if _, err := c.Search("shop", []float32{0, 0}, 1, &client.SearchOptions{
		CatFilter: &rest.CatFilterJSON{Attr: "nope", Values: []string{"x"}},
	}); err == nil {
		t.Fatal("unknown categorical field accepted")
	}
}

// TestSDKSearchANDsFilters: through the SDK, a range filter and a
// categorical filter given together both apply (ids 5–9 of ten rows with
// price = id, every brand "acme").
func TestSDKSearchANDsFilters(t *testing.T) {
	c := newServer(t)
	if err := c.CreateCollectionFull("shop", []client.VectorField{{Name: "v", Dim: 2}}, []string{"price"}, []string{"brand"}); err != nil {
		t.Fatal(err)
	}
	var ents []client.Entity
	for i := 0; i < 10; i++ {
		ents = append(ents, client.Entity{ID: int64(i), Vectors: [][]float32{{float32(i), 0}}, Attrs: []int64{int64(i)}, Cats: []string{"acme"}})
	}
	if err := c.Insert("shop", ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush("shop"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Search("shop", []float32{0, 0}, 10, &client.SearchOptions{
		Filter:    &client.Filter{Attr: "price", Lo: 5, Hi: 9},
		CatFilter: &rest.CatFilterJSON{Attr: "brand", Values: []string{"acme"}},
	})
	var ids []int64
	for _, r := range res {
		ids = append(ids, r.ID)
	}
	if err != nil || len(ids) != 5 || ids[0] != 5 || ids[4] != 9 {
		t.Fatalf("price 5..9 AND brand IN acme = %v, %v; want ids 5–9", ids, err)
	}
}

// TestSDKNonFiniteQueryIs400: the SDK sends a NaN or ±Inf query vector,
// per-field vector or weight as bits, and the server's schema refuses it:
// every search reaches the server and fails with the server's error naming
// the NaN or ±Inf, and so does an insert holding one in a float field.
func TestSDKNonFiniteQueryIs400(t *testing.T) {
	var searches atomic.Int64
	h := rest.NewServer(nil)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/search") {
			searches.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	c := client.New(srv.URL)
	fields := []client.VectorField{{Name: "a", Dim: 2}, {Name: "b", Dim: 2}}
	if err := c.CreateCollection("c", fields, nil); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, bad float32, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "NaN or ±Inf") {
			t.Errorf("%s with %v: %v; want the server's NaN or ±Inf error", what, bad, err)
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		_, err := c.Search("c", []float32{1, bad}, 1, nil)
		refused("Search", bad, err)
		_, err = c.SearchMulti("c", [][]float32{{1, 2}, {bad, 0}}, nil, 1)
		refused("SearchMulti", bad, err)
		_, err = c.SearchMulti("c", [][]float32{{1, 2}, {3, 4}}, []float32{1, bad}, 1)
		refused("SearchMulti's weight", bad, err)
		refused("Insert", bad, c.Insert("c", []client.Entity{{ID: 1, Vectors: [][]float32{{1, 2}, {bad, 0}}}}))
	}
	if n := searches.Load(); n != 9 {
		t.Fatalf("%d searches reached the server, want 9", n)
	}
}

// TestSDKBinaryFingerprintWords: a binary fingerprint's packed words cross
// the SDK wire as bits, whatever float they read as. Hamming and Tanimoto
// rows holding an all-ones word and a quiet NaN's pattern insert, and a
// search for each row finds it first at distance 0.
func TestSDKBinaryFingerprintWords(t *testing.T) {
	c := newServer(t)
	words := [][2]uint32{{0xFFFFFFFF, 0x7FC00000}, {0x7FC00000, 0xFFFFFFFF}, {0x0F0F0F0F, 0xFFFFFFFF}, {0x00000001, 0x80000000}}
	for _, metric := range []string{"HAMMING", "TANIMOTO"} {
		name := strings.ToLower(metric)
		if err := c.CreateCollection(name, []client.VectorField{{Name: "fp", Dim: 2, Metric: metric}}, nil); err != nil {
			t.Fatal(err)
		}
		es := make([]client.Entity, len(words))
		for i, w := range words {
			es[i] = client.Entity{ID: int64(i + 1), Vectors: [][]float32{{math.Float32frombits(w[0]), math.Float32frombits(w[1])}}}
		}
		if err := c.Insert(name, es); err != nil {
			t.Fatalf("%s insert: %v", metric, err)
		}
		if err := c.Flush(name); err != nil {
			t.Fatal(err)
		}
		for i, e := range es {
			hits, err := c.Search(name, e.Vectors[0], 2, nil)
			if err != nil || len(hits) == 0 || hits[0].ID != e.ID || hits[0].Distance != 0 {
				t.Errorf("%s: search for %x answered %v, %v; want id %d first at distance 0", metric, words[i], hits, err, e.ID)
			}
		}
	}
}
