package flat

import (
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/vec"
)

func TestFlatIsExact(t *testing.T) {
	d := dataset.DeepLike(400, 1)
	idx, err := NewBuilder(vec.L2, d.Dim).Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := dataset.Queries(d, 5, 2)
	gt := dataset.GroundTruth(d, qs, 7, vec.L2)
	for qi := 0; qi < 5; qi++ {
		res := idx.Search(qs[qi*d.Dim:(qi+1)*d.Dim], index.SearchParams{K: 7})
		for i := range res {
			if res[i].ID != gt[qi][i].ID {
				t.Fatalf("query %d rank %d: %d != %d", qi, i, res[i].ID, gt[qi][i].ID)
			}
		}
	}
}

func TestFlatCopiesInput(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	idx, err := NewBuilder(vec.L2, 2).Build(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 999 // caller mutation must not affect the index
	res := idx.Search([]float32{1, 2}, index.SearchParams{K: 1})
	if res[0].ID != 0 || res[0].Distance != 0 {
		t.Fatalf("index data mutated by caller: %v", res)
	}
}

func TestFlatDataAccessors(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	idx, _ := NewBuilder(vec.L2, 2).Build(data, []int64{5, 9})
	f := idx.(*Flat)
	if len(f.data) != 4 || f.ids[1] != 9 {
		t.Fatal("accessors wrong")
	}
	if f.MemoryBytes() != 4*4+2*8 {
		t.Fatalf("MemoryBytes = %d", f.MemoryBytes())
	}
}

func TestFlatBuildErrors(t *testing.T) {
	if _, err := NewBuilder(vec.L2, 2).Build([]float32{1, 2, 3}, nil); err == nil {
		t.Error("ragged data accepted")
	}
	if _, err := NewBuilder(vec.L2, 2).Build(nil, nil); err == nil {
		t.Error("empty data accepted")
	}
}
