package baseline

import (
	"reflect"
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/metric"
	"vectordb/internal/vec"
)

type testedSystem interface {
	System
	Parallelism() int
}

func allSystems() []testedSystem {
	ivfParams := map[string]string{"nlist": "16", "iter": "4"}
	return []testedSystem{
		&Milvus{IndexType: "IVF_FLAT", Params: ivfParams},
		&Milvus{IndexType: "IVF_SQ8", Params: ivfParams},
		&Milvus{Label: "Milvus_HNSW", IndexType: "HNSW", Params: map[string]string{"m": "8"}},
		&PerQueryLocked{Label: "Vearch-like", IndexType: "IVF_FLAT", Params: ivfParams},
		&SPTAGLike{NTrees: 8},
		&SystemB{},
		&SystemC{},
		&LimitedPool{Label: "System A", IndexType: "HNSW", Params: map[string]string{"m": "8"}, Workers: 2},
	}
}

func TestAllBaselinesAnswerQueries(t *testing.T) {
	d := dataset.DeepLike(1200, 1)
	qs := dataset.Queries(d, 8, 2)
	truth := dataset.GroundTruth(d, qs, 10, vec.L2)
	for _, sys := range allSystems() {
		if err := sys.Build(d, vec.L2); err != nil {
			t.Fatalf("%s: %v", sys.Name(), err)
		}
		res := sys.SearchBatch(qs, 10, 16)
		if len(res) != 8 {
			t.Fatalf("%s: %d result sets", sys.Name(), len(res))
		}
		r := 0.0
		for i := range res {
			r += metric.Recall(truth[i], res[i])
		}
		r /= 8
		if r < 0.5 {
			t.Errorf("%s: recall %.3f implausibly low at generous accuracy", sys.Name(), r)
		}
		if sys.MemoryBytes() <= 0 {
			t.Errorf("%s: MemoryBytes = %d", sys.Name(), sys.MemoryBytes())
		}
		if p := sys.Parallelism(); p < 1 || p > 16 {
			t.Errorf("%s: Parallelism = %d", sys.Name(), p)
		}
	}
}

func TestSystemBIsExact(t *testing.T) {
	d := dataset.DeepLike(500, 3)
	qs := dataset.Queries(d, 5, 4)
	truth := dataset.GroundTruth(d, qs, 7, vec.L2)
	sys := &SystemB{}
	if err := sys.Build(d, vec.L2); err != nil {
		t.Fatal(err)
	}
	res := sys.SearchBatch(qs, 7, 0)
	for i := range res {
		if metric.Recall(truth[i], res[i]) != 1 {
			t.Fatalf("brute force not exact on query %d", i)
		}
	}
}

func TestSystemCMatchesMilvusResults(t *testing.T) {
	// The legacy executor is slower, never wrong: full probe must equal the
	// exact answer.
	d := dataset.DeepLike(800, 5)
	qs := dataset.Queries(d, 4, 6)
	truth := dataset.GroundTruth(d, qs, 5, vec.L2)
	sys := &SystemC{}
	if err := sys.Build(d, vec.L2); err != nil {
		t.Fatal(err)
	}
	res := sys.SearchBatch(qs, 5, 1<<20) // probe everything
	for i := range res {
		if metric.Recall(truth[i], res[i]) != 1 {
			t.Fatalf("System C full probe not exact on query %d", i)
		}
	}
}

func TestSPTAGLikeMemoryPenalty(t *testing.T) {
	d := dataset.DeepLike(1500, 7)
	sptag := &SPTAGLike{NTrees: 32}
	if err := sptag.Build(d, vec.L2); err != nil {
		t.Fatal(err)
	}
	milvus := &Milvus{IndexType: "IVF_FLAT", Params: map[string]string{"iter": "4"}}
	if err := milvus.Build(d, vec.L2); err != nil {
		t.Fatal(err)
	}
	if sptag.MemoryBytes() < 3*milvus.MemoryBytes() {
		t.Errorf("SPTAG-like memory %d not ≫ Milvus %d (paper: 14×)", sptag.MemoryBytes(), milvus.MemoryBytes())
	}
}

func TestCapabilityMatrixShape(t *testing.T) {
	if len(CapabilityMatrix) != 7 {
		t.Fatalf("%d systems in Table 1", len(CapabilityMatrix))
	}
	last := CapabilityMatrix[len(CapabilityMatrix)-1]
	c := last.Caps
	if !(c.BillionScale && c.DynamicData && c.GPU && c.AttributeFilter && c.MultiVectorQuery && c.Distributed) {
		t.Fatal("Milvus row must claim all six capabilities")
	}
	for _, row := range CapabilityMatrix[:len(CapabilityMatrix)-1] {
		if row.Caps.MultiVectorQuery {
			t.Fatalf("%s claims multi-vector support (only Milvus does in Table 1)", row.System)
		}
	}
}

// TestMilvusSearchesPerQuery: Milvus answers a batch with one index search
// per query, so its results are the index's own, bit for bit.
func TestMilvusSearchesPerQuery(t *testing.T) {
	d := dataset.DeepLike(600, 8)
	m := &Milvus{IndexType: "IVF_FLAT", Params: map[string]string{"nlist": "8", "iter": "4"}}
	if err := m.Build(d, vec.L2); err != nil {
		t.Fatal(err)
	}
	qs := dataset.Queries(d, 3, 9)
	batch := m.SearchBatch(qs, 5, 8)
	for qi := 0; qi < 3; qi++ {
		single := m.idx.Search(qs[qi*d.Dim:(qi+1)*d.Dim], searchParamsFor(5, 8))
		if !reflect.DeepEqual(single, batch[qi]) {
			t.Fatalf("query %d: batch %v, per-query search %v", qi, batch[qi], single)
		}
	}
}

// TestThreadPerQueryIsExact: the Faiss model scans every row for every
// query, so it finds the exact neighbours, with rows named by position.
func TestThreadPerQueryIsExact(t *testing.T) {
	d := dataset.DeepLike(1500, 10)
	qs := dataset.Queries(d, 9, 11)
	for _, m := range []vec.Metric{vec.L2, vec.IP, vec.Cosine} {
		got := ThreadPerQuery(qs, d.Data, d.Dim, 10, m)
		if len(got) != 9 {
			t.Fatalf("%v: %d result sets", m, len(got))
		}
		if r := metric.MeanRecall(dataset.GroundTruth(d, qs, 10, m), got); r != 1 {
			t.Errorf("%v: recall %.3f, want 1", m, r)
		}
	}
}

// TestThreadPerQuerySingleQuerySingleVector: one query over one row finds
// that row, at position 0 and distance 0, for all k.
func TestThreadPerQuerySingleQuerySingleVector(t *testing.T) {
	got := ThreadPerQuery([]float32{1, 2}, []float32{1, 2}, 2, 5, vec.L2)
	if len(got) != 1 || len(got[0]) != 1 || got[0][0].ID != 0 || got[0][0].Distance != 0 {
		t.Fatalf("got %v, want one hit on row 0 at distance 0", got)
	}
}

// TestThreadPerQueryMoreWorkersThanQueries: a batch with fewer queries
// than the pool has workers, over fewer rows than k, answers every query
// with every row.
func TestThreadPerQueryMoreWorkersThanQueries(t *testing.T) {
	d := dataset.DeepLike(3, 12)
	qs := dataset.Queries(d, 2, 13)
	got := ThreadPerQuery(qs, d.Data, d.Dim, 10, vec.L2)
	if len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 3 {
		t.Fatalf("got %v, want 2 result sets of 3 rows", got)
	}
	if r := metric.MeanRecall(dataset.GroundTruth(d, qs, 10, vec.L2), got); r != 1 {
		t.Errorf("recall %.3f, want 1", r)
	}
}

// TestThreadPerQueryUsesBatchKernels: the Faiss model streams the data
// through the blocked kernels, not one per-row distance call at a time.
func TestThreadPerQueryUsesBatchKernels(t *testing.T) {
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	d := dataset.DeepLike(500, 14)
	qs := dataset.Queries(d, 8, 15)
	for _, m := range []vec.Metric{vec.L2, vec.IP} {
		vec.ResetDispatchCounts()
		ThreadPerQuery(qs, d.Data, d.Dim, 5, m)
		if vec.BatchDispatchTotal() == 0 {
			t.Errorf("%v: no batch-kernel dispatches", m)
		}
		if n := vec.DispatchCount(vec.CurrentLevel()); n != 0 {
			t.Errorf("%v: %d per-row kernel dispatches, want 0", m, n)
		}
	}
}
