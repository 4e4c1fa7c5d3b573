package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vectordb/internal/objstore"
	"vectordb/internal/vec"
)

func testSchema(dim int) Schema {
	return Schema{
		VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: vec.L2}},
		AttrFields:   []string{"price"},
	}
}

func testConfig() Config {
	return Config{
		FlushRows:      64,
		FlushInterval:  -1, // timer off: tests flush explicitly
		MergeFactor:    4,
		MaxSegmentRows: 1 << 16,
		IndexRows:      1 << 20, // auto-indexing off unless a test opts in
		SyncIndex:      true,
	}
}

func mkEntities(n int, dim int, seed int64) []Entity {
	r := rand.New(rand.NewSource(seed))
	out := make([]Entity, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		out[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{v}, Attrs: []int64{int64(r.Intn(10000))}}
	}
	return out
}

func newTestCollection(t *testing.T, dim int) *Collection {
	t.Helper()
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSchemaValidation(t *testing.T) {
	cases := []Schema{
		{},
		{VectorFields: []VectorField{{Name: "", Dim: 4}}},
		{VectorFields: []VectorField{{Name: "v", Dim: 0}}},
		{VectorFields: []VectorField{{Name: "v", Dim: 4}, {Name: "v", Dim: 4}}},
		{VectorFields: []VectorField{{Name: "v", Dim: 4}}, AttrFields: []string{""}},
		{VectorFields: []VectorField{{Name: "v", Dim: 4}}, AttrFields: []string{"v"}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid schema accepted", i)
		}
	}
	good := testSchema(8)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	if _, err := good.VectorFieldIndex("nope"); err == nil {
		t.Error("unknown vector field resolved")
	}
	if _, err := good.AttrFieldIndex("nope"); err == nil {
		t.Error("unknown attr field resolved")
	}
}

func TestInsertFlushSearch(t *testing.T) {
	c := newTestCollection(t, 8)
	ents := mkEntities(100, 8, 1)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	// Self-query must find the entity itself first.
	res, err := c.Search(ents[7].Vectors[0], SearchOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 || res[0].ID != ents[7].ID || res[0].Distance != 0 {
		t.Fatalf("self-search = %v", res)
	}
}

func TestAsyncVisibility(t *testing.T) {
	c := newTestCollection(t, 4)
	// Inserts below FlushRows without Flush are not yet visible (Sec. 5.1).
	if err := c.Insert(mkEntities(10, 4, 2)); err != nil {
		t.Fatal(err)
	}
	c.log.Flush() // applied to MemTable, but not flushed to a segment
	if got := c.Count(); got != 0 {
		t.Fatalf("unflushed rows visible: Count = %d", got)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Count(); got != 10 {
		t.Fatalf("Count after Flush = %d", got)
	}
}

func TestSizeThresholdAutoFlush(t *testing.T) {
	c := newTestCollection(t, 4) // FlushRows = 64
	if err := c.Insert(mkEntities(130, 4, 3)); err != nil {
		t.Fatal(err)
	}
	c.log.Flush()
	st := c.Stats()
	// Two auto-flushes at 64 rows each; 2 leftovers still in MemTable.
	if st.Segments != 2 || st.TotalRows != 128 {
		t.Fatalf("stats after auto flush: %+v", st)
	}
}

func TestTimerFlush(t *testing.T) {
	cfg := testConfig()
	cfg.FlushInterval = 10 * time.Millisecond
	c, err := NewCollection("timer", testSchema(4), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(mkEntities(5, 4, 4)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.Count() != 5 {
		if time.Now().After(deadline) {
			t.Fatal("timer flush did not fire")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestDeleteTombstonesAndGet(t *testing.T) {
	c := newTestCollection(t, 4)
	ents := mkEntities(50, 4, 5)
	c.Insert(ents)
	c.Flush()
	if _, ok := c.Get(ents[3].ID); !ok {
		t.Fatal("Get before delete failed")
	}
	c.Delete([]int64{ents[3].ID, ents[4].ID})
	c.Flush()
	if got := c.Count(); got != 48 {
		t.Fatalf("Count after delete = %d", got)
	}
	if _, ok := c.Get(ents[3].ID); ok {
		t.Fatal("deleted entity still visible via Get")
	}
	// Deleted entities never appear in search results.
	res, err := c.Search(ents[3].Vectors[0], SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.ID == ents[3].ID || r.ID == ents[4].ID {
			t.Fatalf("deleted id %d in results", r.ID)
		}
	}
}

func TestDeleteInMemTableNeverFlushed(t *testing.T) {
	c := newTestCollection(t, 4)
	ents := mkEntities(10, 4, 6)
	c.Insert(ents)
	c.Delete([]int64{ents[0].ID})
	c.Flush()
	st := c.Stats()
	if st.TotalRows != 9 {
		t.Fatalf("TotalRows = %d, want 9 (row dropped at flush)", st.TotalRows)
	}
	if st.Tombstones != 0 {
		t.Fatalf("Tombstones = %d, want 0 (nothing physical to clean)", st.Tombstones)
	}
}

func TestUpdateAsDeletePlusInsert(t *testing.T) {
	c := newTestCollection(t, 4)
	e := mkEntities(1, 4, 7)
	c.Insert(e)
	c.Flush()
	// Update = delete + insert (Sec. 2.3).
	c.Delete([]int64{e[0].ID})
	updated := Entity{ID: e[0].ID, Vectors: [][]float32{{9, 9, 9, 9}}, Attrs: []int64{777}}
	c.Insert([]Entity{updated})
	c.Flush()
	got, ok := c.Get(e[0].ID)
	if !ok {
		t.Fatal("updated entity invisible")
	}
	if got.Attrs[0] != 777 || got.Vectors[0][0] != 9 {
		t.Fatalf("stale version returned: %+v", got)
	}
	if c.Count() != 1 {
		t.Fatalf("Count = %d, want 1", c.Count())
	}
}

func TestTieredMergeCompactsTombstones(t *testing.T) {
	c := newTestCollection(t, 4) // MergeFactor 4, FlushRows 64
	var all []Entity
	for b := 0; b < 4; b++ {
		ents := mkEntities(64, 4, int64(10+b))
		for i := range ents {
			ents[i].ID = int64(b*64 + i + 1)
		}
		all = append(all, ents...)
		c.Insert(ents)
		c.Flush()
	}
	// Four equal segments → one merge into a single 256-row segment.
	st := c.Stats()
	if st.Segments != 1 || st.TotalRows != 256 {
		t.Fatalf("after merge: %+v", st)
	}
	// Tombstone some rows, then force another merge round via new inserts.
	c.Delete([]int64{all[0].ID, all[1].ID})
	c.Flush()
	st = c.Stats()
	if st.Tombstones != 2 {
		t.Fatalf("Tombstones = %d, want 2", st.Tombstones)
	}
	for b := 0; b < 4; b++ {
		ents := mkEntities(64, 4, int64(20+b))
		for i := range ents {
			ents[i].ID = int64(1000 + b*64 + i)
		}
		c.Insert(ents)
		c.Flush()
	}
	// The 4 new segments merged; the old big segment is in a higher tier.
	st = c.Stats()
	if st.Segments != 2 {
		t.Fatalf("Segments = %d, want 2: %+v", st.Segments, st)
	}
	// Merge the two tiers together by adding more data until they combine.
	cfg2 := c.cfg
	_ = cfg2
	// Force compaction of tombstones: merge the 256-row segments (tier
	// parity) by inserting two more 256-row groups.
	for g := 0; g < 2; g++ {
		for b := 0; b < 4; b++ {
			ents := mkEntities(64, 4, int64(30+g*4+b))
			for i := range ents {
				ents[i].ID = int64(10000 + g*1000 + b*64 + i)
			}
			c.Insert(ents)
			c.Flush()
		}
	}
	st = c.Stats()
	if st.Tombstones != 0 {
		t.Fatalf("tombstones not compacted away: %+v", st)
	}
	if got := c.Count(); got != 256-2+256+512 {
		t.Fatalf("Count = %d", got)
	}
}

func TestSnapshotIsolationDuringWrites(t *testing.T) {
	c := newTestCollection(t, 4)
	c.Insert(mkEntities(64, 4, 40))
	c.Flush()
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	rowsBefore := sn.TotalRows()
	// New writes and merges must not change the pinned snapshot.
	for b := 0; b < 4; b++ {
		ents := mkEntities(64, 4, int64(50+b))
		for i := range ents {
			ents[i].ID = int64(5000 + b*64 + i)
		}
		c.Insert(ents)
		c.Flush()
	}
	if sn.TotalRows() != rowsBefore {
		t.Fatal("pinned snapshot changed under writes")
	}
	if c.AcquireSnapshot().TotalRows() == rowsBefore {
		t.Fatal("current snapshot did not advance")
	}
}

func TestSegmentGCAfterMerge(t *testing.T) {
	store := objstore.NewMemory()
	c, err := NewCollection("gc", testSchema(4), store, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for b := 0; b < 4; b++ {
		ents := mkEntities(64, 4, int64(60+b))
		for i := range ents {
			ents[i].ID = int64(b*64 + i + 1)
		}
		c.Insert(ents)
		c.Flush()
	}
	// After the merge, only the merged segment's blob may remain.
	keys, err := store.List("col/gc/seg/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("blobs after merge = %v, want 1 (GC of obsolete segments)", keys)
	}
	if c.snaps.liveSegments() != 1 {
		t.Fatalf("liveSegments = %d", c.snaps.liveSegments())
	}
}

func TestPinnedSnapshotDefersGC(t *testing.T) {
	store := objstore.NewMemory()
	c, err := NewCollection("gc2", testSchema(4), store, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for b := 0; b < 3; b++ {
		c.Insert(mkEntities(64, 4, int64(70+b)))
		c.Flush()
	}
	sn := c.AcquireSnapshot() // pins the 3 pre-merge segments
	c.Insert(mkEntities(64, 4, 73))
	c.Flush() // triggers merge of 4 segments
	keys, _ := store.List("col/gc2/seg/")
	if len(keys) != 4 {
		t.Fatalf("pinned segments GCed early: %d blobs", len(keys))
	}
	c.ReleaseSnapshot(sn)
	keys, _ = store.List("col/gc2/seg/")
	if len(keys) != 1 {
		t.Fatalf("blobs after release = %v, want 1", keys)
	}
}

func TestAutoIndexOnLargeSegments(t *testing.T) {
	cfg := testConfig()
	cfg.FlushRows = 256
	cfg.IndexRows = 256
	cfg.IndexType = "IVF_FLAT"
	cfg.IndexParams = map[string]string{"nlist": "8", "iter": "4"}
	c, err := NewCollection("idx", testSchema(8), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Insert(mkEntities(256, 8, 90))
	c.Flush()
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	if sn.Segments[0].Index(0) == nil {
		t.Fatal("large segment not auto-indexed")
	}
	if sn.Segments[0].Index(0).Name() != "IVF_FLAT" {
		t.Fatalf("index type = %s", sn.Segments[0].Index(0).Name())
	}
}

func TestManualBuildIndexAnySize(t *testing.T) {
	c := newTestCollection(t, 8)
	c.Insert(mkEntities(40, 8, 91))
	c.Flush()
	if err := c.BuildIndex("v", "HNSW", map[string]string{"m": "8"}); err != nil {
		t.Fatal(err)
	}
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	if sn.Segments[0].Index(0) == nil || sn.Segments[0].Index(0).Name() != "HNSW" {
		t.Fatal("manual index not built")
	}
	if err := c.BuildIndex("nope", "HNSW", nil); err == nil {
		t.Error("unknown field accepted")
	}
	if err := c.BuildIndex("v", "NOPE", nil); err == nil {
		t.Error("unknown index type accepted")
	}
}

func TestSearchErrors(t *testing.T) {
	c := newTestCollection(t, 4)
	c.Insert(mkEntities(10, 4, 92))
	c.Flush()
	if _, err := c.Search([]float32{1, 2}, SearchOptions{K: 1}); err == nil {
		t.Error("wrong dim accepted")
	}
	if _, err := c.Search([]float32{1, 2, 3, 4}, SearchOptions{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := c.Search([]float32{1, 2, 3, 4}, SearchOptions{K: 1, Field: "zzz"}); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestInsertValidation(t *testing.T) {
	c := newTestCollection(t, 4)
	bad := []Entity{{ID: 1, Vectors: [][]float32{{1, 2}}, Attrs: []int64{0}}}
	if err := c.Insert(bad); err == nil {
		t.Error("wrong dim accepted")
	}
	bad2 := []Entity{{ID: 1, Vectors: [][]float32{{1, 2, 3, 4}}, Attrs: nil}}
	if err := c.Insert(bad2); err == nil {
		t.Error("missing attrs accepted")
	}
}

func TestDBLifecycle(t *testing.T) {
	db := NewDB(nil)
	defer db.Close()
	c, err := db.CreateCollection("a", testSchema(4), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateCollection("a", testSchema(4), testConfig()); err == nil {
		t.Error("duplicate collection accepted")
	}
	got, err := db.Collection("a")
	if err != nil || got != c {
		t.Fatalf("Collection = %v, %v", got, err)
	}
	if _, err := db.Collection("b"); err == nil {
		t.Error("missing collection resolved")
	}
	c.Insert(mkEntities(10, 4, 93))
	c.Flush()
	if names := db.ListCollections(); len(names) != 1 || names[0] != "a" {
		t.Fatalf("ListCollections = %v", names)
	}
	if err := db.DropCollection("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCollection("a"); err == nil {
		t.Error("double drop accepted")
	}
	keys, _ := db.Store().List("col/a/")
	if len(keys) != 0 {
		t.Fatalf("dropped collection left blobs: %v", keys)
	}
}

func TestFusedSearchMatchesExhaustive(t *testing.T) {
	schema := Schema{
		VectorFields: []VectorField{
			{Name: "text", Dim: 4, Metric: vec.IP},
			{Name: "image", Dim: 6, Metric: vec.IP},
		},
	}
	c, err := NewCollection("mv", schema, objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := rand.New(rand.NewSource(94))
	n := 200
	ents := make([]Entity, n)
	for i := range ents {
		v1 := make([]float32, 4)
		v2 := make([]float32, 6)
		for j := range v1 {
			v1[j] = float32(r.NormFloat64())
		}
		for j := range v2 {
			v2[j] = float32(r.NormFloat64())
		}
		ents[i] = Entity{ID: int64(i + 1), Vectors: [][]float32{v1, v2}}
	}
	c.Insert(ents)
	c.Flush()
	q1 := []float32{1, 0, -1, 0.5}
	q2 := []float32{0.2, -0.3, 1, 0, 0, 0.7}
	w := []float32{2, 0.5}
	res, err := c.SearchFused([][]float32{q1, q2}, w, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive check of the aggregation g = 2·IP(q1,v1) + 0.5·IP(q2,v2),
	// as a distance: -(2·ip1 + 0.5·ip2).
	best := struct {
		id int64
		d  float32
	}{0, 1e30}
	for _, e := range ents {
		d := -(2*dot(q1, e.Vectors[0]) + 0.5*dot(q2, e.Vectors[1]))
		if d < best.d {
			best = struct {
				id int64
				d  float32
			}{e.ID, d}
		}
	}
	if res[0].ID != best.id {
		t.Fatalf("fused top-1 = %d, want %d", res[0].ID, best.id)
	}
	// Fused index path must agree with the scan path.
	if err := c.BuildFusedIndex("FLAT", nil); err != nil {
		t.Fatal(err)
	}
	res2, err := c.SearchFused([][]float32{q1, q2}, w, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if res[i].ID != res2[i].ID {
			t.Fatalf("indexed fusion differs at %d: %v vs %v", i, res, res2)
		}
	}
}

func dot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestFusedErrors(t *testing.T) {
	c := newTestCollection(t, 4) // single field
	if _, err := c.SearchFused([][]float32{{1, 2, 3, 4}}, nil, SearchOptions{K: 1}); err == nil {
		t.Error("fusion with one field accepted")
	}
	schema := Schema{VectorFields: []VectorField{
		{Name: "a", Dim: 2, Metric: vec.L2},
		{Name: "b", Dim: 2, Metric: vec.L2},
	}}
	c2, err := NewCollection("mv2", schema, objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.Insert([]Entity{{ID: 1, Vectors: [][]float32{{1, 2}, {3, 4}}}})
	c2.Flush()
	// L2 with unit weights is decomposable…
	if _, err := c2.SearchFused([][]float32{{1, 2}, {3, 4}}, nil, SearchOptions{K: 1}); err != nil {
		t.Errorf("unit-weight L2 fusion rejected: %v", err)
	}
	// …but weighted L2 is not.
	if _, err := c2.SearchFused([][]float32{{1, 2}, {3, 4}}, []float32{2, 1}, SearchOptions{K: 1}); err == nil {
		t.Error("weighted L2 fusion accepted")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	c := newTestCollection(t, 8)
	c.Insert(mkEntities(64, 8, 95))
	c.Flush()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < 8; b++ {
			ents := mkEntities(64, 8, int64(100+b))
			for i := range ents {
				ents[i].ID = int64(20000 + b*64 + i)
			}
			c.Insert(ents)
			c.Flush()
		}
	}()
	q := make([]float32, 8)
	for {
		select {
		case <-done:
			res, err := c.Search(q, SearchOptions{K: 10})
			if err != nil || len(res) != 10 {
				t.Fatalf("final search: %v, %v", res, err)
			}
			return
		default:
			if _, err := c.Search(q, SearchOptions{K: 10}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func ExampleCollection_Search() {
	c, _ := NewCollection("ex", Schema{
		VectorFields: []VectorField{{Name: "v", Dim: 2, Metric: vec.L2}},
	}, nil, Config{FlushInterval: -1, SyncIndex: true})
	defer c.Close()
	c.Insert([]Entity{
		{ID: 1, Vectors: [][]float32{{0, 0}}},
		{ID: 2, Vectors: [][]float32{{1, 1}}},
		{ID: 3, Vectors: [][]float32{{5, 5}}},
	})
	c.Flush()
	res, _ := c.Search([]float32{0.9, 0.9}, SearchOptions{K: 2})
	fmt.Println(res[0].ID, res[1].ID)
	// Output: 2 1
}
