package vectordb_test

import (
	"bytes"
	"testing"

	"vectordb"
	"vectordb/internal/obs/promtext"
)

// TestQueryProducesTrace is the end-to-end observability acceptance test:
// a search through the public API must leave a trace in the query log with
// at least four distinct stages, and the registry must expose the query
// series in parseable Prometheus text format.
func TestQueryProducesTrace(t *testing.T) {
	db := vectordb.Open(nil)
	defer db.Close()
	col, err := db.CreateCollection("items", vectordb.Schema{
		VectorFields: []vectordb.VectorField{{Name: "v", Dim: 4}},
		AttrFields:   []string{"price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]vectordb.Entity, 50)
	for i := range ents {
		ents[i] = vectordb.Entity{
			ID:      int64(i + 1),
			Vectors: [][]float32{{float32(i), float32(i % 7), 1, 0}},
			Attrs:   []int64{int64(i * 10)},
		}
	}
	if err := col.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Search([]float32{3, 3, 1, 0}, vectordb.SearchRequest{K: 5}); err != nil {
		t.Fatal(err)
	}

	recent := db.QueryLog().Recent()
	if len(recent) == 0 {
		t.Fatal("query log empty after a search")
	}
	tr := recent[0]
	stages := tr.Stages()
	if len(stages) < 4 {
		t.Fatalf("trace has %d distinct stages %v, want >= 4", len(stages), stages)
	}
	if got, _ := tr.Attr("plan"); got != "flat_cpu" {
		t.Errorf("plan = %q, want flat_cpu", got)
	}
	if tr.Duration <= 0 {
		t.Errorf("trace duration = %v, want > 0", tr.Duration)
	}

	var buf bytes.Buffer
	if err := db.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	ok := false
	for _, f := range fams {
		if f.Name != "vectordb_query_total" {
			continue
		}
		for _, s := range f.Samples {
			if s.Labels["collection"] == "items" && s.Labels["type"] == "vector" && s.Value == 1 {
				ok = true
			}
		}
	}
	if !ok {
		t.Errorf("vectordb_query_total{collection=\"items\",type=\"vector\"} != 1 in exposition")
	}
}

// TestFilteredQueryTraced: an attribute-filtered search through the public
// API records which filtering strategy served it.
func TestFilteredQueryTraced(t *testing.T) {
	db := vectordb.Open(nil)
	defer db.Close()
	col, err := db.CreateCollection("f", vectordb.Schema{
		VectorFields: []vectordb.VectorField{{Name: "v", Dim: 4}},
		AttrFields:   []string{"price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ents := make([]vectordb.Entity, 50)
	for i := range ents {
		ents[i] = vectordb.Entity{
			ID:      int64(i + 1),
			Vectors: [][]float32{{float32(i), 0, 0, 1}},
			Attrs:   []int64{int64(i)},
		}
	}
	if err := col.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := col.Search([]float32{25, 0, 0, 1}, vectordb.SearchRequest{
		K:      5,
		Filter: &vectordb.AttrRange{Attr: "price", Lo: 10, Hi: 40},
	}); err != nil {
		t.Fatal(err)
	}
	recent := db.QueryLog().Recent()
	if len(recent) == 0 {
		t.Fatal("query log empty after a filtered search")
	}
	if got, ok := recent[0].Attr("filter_strategy"); !ok || got == "" {
		t.Errorf("filter_strategy missing from filtered-search trace (attrs %v)", recent[0].Attrs)
	}
}
