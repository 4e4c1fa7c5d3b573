package core

import (
	"testing"

	"vectordb/internal/query"
	"vectordb/internal/topk"
)

// SourceView is what the figures' strategies and the benchmark's traced
// replay run over; the served read path does not use it.
var (
	_ query.Source      = (*SourceView)(nil)
	_ query.Shaped      = (*SourceView)(nil)
	_ query.MultiSource = (*SourceView)(nil)
)

// The filtering strategies must produce exact answers when run over the
// live LSM engine through the SourceView adapter — including across
// multiple segments and tombstones.
func TestStrategiesOverLSMAdapter(t *testing.T) {
	c := newTestCollection(t, 8)
	// Three segments (FlushRows=64) plus tombstones.
	ents := mkEntities(180, 8, 30)
	c.Insert(ents)
	c.Flush()
	c.Delete([]int64{5, 50, 100})
	c.Flush()

	deleted := map[int64]bool{5: true, 50: true, 100: true}
	exact := func(lo, hi int64, q []float32, k int) []topk.Result {
		h := topk.New(k)
		for _, e := range ents {
			if deleted[e.ID] || e.Attrs[0] < lo || e.Attrs[0] > hi {
				continue
			}
			var d float32
			for j := range q {
				diff := q[j] - e.Vectors[0][j]
				d += diff * diff
			}
			h.Push(e.ID, d)
		}
		return h.Results()
	}

	src := c.Source()
	defer src.Release()
	q := ents[33].Vectors[0]
	for _, rng := range [][2]int64{{0, 9999}, {100, 4000}, {9000, 9999}} {
		rc := query.RangeCond{Attr: 0, Lo: rng[0], Hi: rng[1]}
		vc := query.VecCond{Field: 0, Query: q, K: 7}
		want := exact(rng[0], rng[1], q, 7)
		for name, got := range map[string][]topk.Result{
			"A": query.StrategyA(src, rc, vc),
			"B": query.StrategyB(src, rc, vc),
			"C": query.StrategyC(src, rc, vc),
		} {
			if len(got) != len(want) {
				t.Fatalf("range %v strategy %s: %d results, want %d", rng, name, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("range %v strategy %s rank %d: %d != %d", rng, name, i, got[i].ID, want[i].ID)
				}
			}
		}
		gotD, _ := query.StrategyD(src, rc, vc, query.DefaultCostModel())
		for i := range want {
			if gotD[i].ID != want[i].ID {
				t.Fatalf("range %v strategy D rank %d: %d != %d", rng, i, gotD[i].ID, want[i].ID)
			}
		}
	}
	// Adapter invariants.
	if src.TotalRows() != 177 {
		t.Fatalf("TotalRows = %d, want 177", src.TotalRows())
	}
	if _, ok := src.AttrValue(0, 5); ok {
		t.Fatal("tombstoned entity's attribute resolved")
	}
	if _, ok := src.DistanceByID(0, q, 5); ok {
		t.Fatal("tombstoned entity's distance resolved")
	}
	for _, id := range src.RangeRows(0, 0, 9999) {
		if deleted[id] {
			t.Fatalf("RangeRows leaked tombstoned id %d", id)
		}
	}
}

func TestMultiSourceOverLSM(t *testing.T) {
	schema := Schema{VectorFields: []VectorField{
		{Name: "a", Dim: 4},
		{Name: "b", Dim: 4},
	}}
	c, err := NewCollection("mvsrc", schema, nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := make([]Entity, 120)
	for i := range ents {
		base := float32(i)
		ents[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{
			{base, 0, 0, 0},
			{0, base, 0, 0},
		}}
	}
	c.Insert(ents)
	c.Flush()
	mv := c.Source()
	defer mv.Release()
	if mv.Fields() != 2 {
		t.Fatalf("Fields = %d", mv.Fields())
	}
	res := query.IterativeMerging(mv, [][]float32{{40, 0, 0, 0}, {0, 40, 0, 0}}, nil, 3, 4096)
	if len(res) != 3 || res[0].ID != 41 {
		t.Fatalf("IMG over LSM = %v", res)
	}
	if d, ok := mv.FieldDistance(0, []float32{40, 0, 0, 0}, 41); !ok || d != 0 {
		t.Fatalf("FieldDistance = %v,%v", d, ok)
	}
}
