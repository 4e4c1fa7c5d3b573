package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"vectordb/internal/colstore"
	"vectordb/internal/core"
	"vectordb/internal/dataset"
	"vectordb/internal/objstore"
	"vectordb/internal/vec"
)

func clusterSchema(dim int) core.Schema {
	return core.Schema{
		VectorFields: []core.VectorField{{Name: "v", Dim: dim, Metric: vec.L2}},
		AttrFields:   []string{"price"},
	}
}

func writerCfg() core.Config {
	return core.Config{FlushRows: 128, FlushInterval: -1, IndexRows: 1 << 20, SyncIndex: true}
}

func entitiesFrom(d *dataset.Dataset, attrs []int64) []core.Entity {
	out := make([]core.Entity, d.N)
	for i := 0; i < d.N; i++ {
		out[i] = core.Entity{ID: int64(i + 1), Vectors: [][]float32{d.Row(i)}, Attrs: []int64{attrs[i]}}
	}
	return out
}

func newTestCluster(t *testing.T, readers int) (*Cluster, *dataset.Dataset) {
	t.Helper()
	cl, err := NewCluster(objstore.NewMemory(), readers, writerCfg(), ReaderConfig{IndexRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.DeepLike(600, 1)
	attrs := dataset.Attributes(d.N, 10000, 2)
	if err := cl.Writer().CreateCollection("c", clusterSchema(d.Dim)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Writer().Insert("c", entitiesFrom(d, attrs)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Writer().Flush("c"); err != nil {
		t.Fatal(err)
	}
	return cl, d
}

func TestRingDistributionAndStability(t *testing.T) {
	r := NewRing(256).Add("a").Add("b").Add("c")
	counts := map[string]int{}
	owner1 := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("seg/%d", i)
		o := r.Lookup(k)
		counts[o]++
		owner1[k] = o
	}
	for n, c := range counts {
		if c < 300 {
			t.Errorf("node %s owns only %d/3000 keys (imbalanced)", n, c)
		}
	}
	// Removing one node must not move keys between surviving nodes.
	r = r.Remove("b")
	for k, o := range owner1 {
		if o == "b" {
			continue
		}
		if got := r.Lookup(k); got != o {
			t.Fatalf("key %s moved from %s to %s after unrelated removal", k, o, got)
		}
	}
	if r.Lookup("x") == "b" {
		t.Fatal("removed node still owns keys")
	}
	r = r.Remove("b").Add("a") // both idempotent
	if len(r.Members()) != 2 {
		t.Fatalf("members = %d", len(r.Members()))
	}
	empty := NewRing(0)
	if empty.Lookup("k") != "" {
		t.Fatal("empty ring returned an owner")
	}
}

func TestClusterSearchMatchesSingleNode(t *testing.T) {
	cl, d := newTestCluster(t, 3)
	qs := dataset.Queries(d, 10, 3)
	gt := dataset.GroundTruth(d, qs, 10, vec.L2)
	for qi := 0; qi < 10; qi++ {
		q := qs[qi*d.Dim : (qi+1)*d.Dim]
		res, err := cl.Search("c", q, core.SearchOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		// Readers scan exactly (FLAT segments) so results must be exact,
		// modulo the +1 ID shift of entitiesFrom.
		for i, r := range res {
			if r.ID != gt[qi][i].ID+1 {
				t.Fatalf("query %d rank %d: id %d, want %d", qi, i, r.ID, gt[qi][i].ID+1)
			}
		}
	}
}

func TestShardsArePartitioned(t *testing.T) {
	cl, d := newTestCluster(t, 4)
	q := dataset.Queries(d, 1, 4)
	if _, err := cl.Search("c", q, core.SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	// Every segment key must be owned by exactly one reader.
	man, err := LoadManifest(cl.Store, "c")
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := cl.Coord.Ring()
	owners := map[string]int{}
	for _, k := range man.SegmentKeys {
		owners[ring.Lookup(k)]++
	}
	total := 0
	for _, n := range owners {
		total += n
	}
	if total != len(man.SegmentKeys) {
		t.Fatalf("ownership double-counts: %v", owners)
	}
}

func TestDeleteVisibleAcrossCluster(t *testing.T) {
	cl, d := newTestCluster(t, 2)
	q := dataset.Queries(d, 1, 5)
	res, err := cl.Search("c", q, core.SearchOptions{K: 1})
	if err != nil || len(res) != 1 {
		t.Fatalf("search: %v %v", res, err)
	}
	victim := res[0].ID
	cl.Writer().Delete("c", []int64{victim})
	cl.Writer().Flush("c")
	res2, err := cl.Search("c", q, core.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res2 {
		if r.ID == victim {
			t.Fatal("deleted entity still returned by readers")
		}
	}
}

func TestReaderCrashFailover(t *testing.T) {
	cl, d := newTestCluster(t, 3)
	q := dataset.Queries(d, 1, 6)
	ids, _ := cl.Coord.Readers()
	if err := cl.CrashReader(ids[0]); err != nil {
		t.Fatal(err)
	}
	// The query must succeed despite the dead reader (failover reroutes
	// its shards), and return the full result set.
	res, err := cl.Search("c", q, core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("failover search returned %d results", len(res))
	}
	after, _ := cl.Coord.Readers()
	if len(after) != 2 {
		t.Fatalf("dead reader not deregistered: %v", after)
	}
	// K8s replacement: restart the instance; it re-registers and serves.
	if err := cl.RestartReader(ids[0]); err != nil {
		t.Fatal(err)
	}
	res2, err := cl.Search("c", q, core.SearchOptions{K: 10})
	if err != nil || len(res2) != 10 {
		t.Fatalf("post-restart search: %v %v", res2, err)
	}
	if cl.Readers() != 3 {
		t.Fatalf("Readers = %d", cl.Readers())
	}
}

func TestAllReadersDead(t *testing.T) {
	cl, d := newTestCluster(t, 2)
	ids, _ := cl.Coord.Readers()
	for _, id := range ids {
		cl.CrashReader(id)
	}
	q := dataset.Queries(d, 1, 7)
	if _, err := cl.Search("c", q, core.SearchOptions{K: 5}); err == nil {
		t.Fatal("search succeeded with every reader dead")
	}
}

func TestWriterCrashRecovery(t *testing.T) {
	cl, d := newTestCluster(t, 2)
	// Write more entities but crash before Flush: the WAL must recover them.
	extra := make([]core.Entity, 10)
	for i := range extra {
		v := make([]float32, d.Dim)
		v[0] = float32(i)
		extra[i] = core.Entity{ID: int64(9000 + i), Vectors: [][]float32{v}, Attrs: []int64{1}}
	}
	if err := cl.Writer().Insert("c", extra); err != nil {
		t.Fatal(err)
	}
	cl.Writer().Crash()
	if err := cl.Writer().Insert("c", extra); err == nil {
		t.Fatal("crashed writer accepted writes")
	}
	if err := cl.Writer().Restart(); err != nil {
		t.Fatal(err)
	}
	col, err := cl.Writer().Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Count(); got != 610 {
		t.Fatalf("Count after recovery = %d, want 610", got)
	}
	if _, ok := col.Get(9005); !ok {
		t.Fatal("replayed entity missing")
	}
	// Readers see the recovered data through the republished manifest.
	q := make([]float32, d.Dim)
	q[0] = 5
	res, err := cl.Search("c", q, core.SearchOptions{K: 1})
	if err != nil || len(res) != 1 {
		t.Fatalf("search after recovery: %v %v", res, err)
	}
	if res[0].ID != 9005 {
		t.Fatalf("recovered entity not found by readers: got %d", res[0].ID)
	}
}

// TestWriterRestartReplaysCategoricals: an acknowledged insert into a
// collection with categorical fields survives a crash before flush — the
// shipped WAL record carries the categorical values and the replay hands
// them back to the collection.
func TestWriterRestartReplaysCategoricals(t *testing.T) {
	const dim = 4
	cl, err := NewCluster(objstore.NewMemory(), 1, writerCfg(), ReaderConfig{IndexRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	schema := clusterSchema(dim)
	schema.CatFields = []string{"brand"}
	if err := cl.Writer().CreateCollection("c", schema); err != nil {
		t.Fatal(err)
	}
	ent := func(id int64, brand string) core.Entity {
		return core.Entity{ID: id, Vectors: [][]float32{{float32(id), 0, 0, 0}}, Attrs: []int64{id}, Cats: []string{brand}}
	}
	if err := cl.Writer().Insert("c", []core.Entity{ent(1, "acme")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Writer().Flush("c"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Writer().Insert("c", []core.Entity{ent(2, "globex")}); err != nil {
		t.Fatal(err)
	}
	cl.Writer().Crash()
	if err := cl.Writer().Restart(); err != nil {
		t.Fatal(err)
	}
	col, err := cl.Writer().Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	for id, brand := range map[int64]string{1: "acme", 2: "globex"} {
		e, ok := col.Get(id)
		if !ok {
			t.Fatalf("row %d lost across the restart", id)
		}
		if len(e.Cats) != 1 || e.Cats[0] != brand {
			t.Fatalf("row %d categoricals = %q, want [%s]", id, e.Cats, brand)
		}
	}
}

// TestReaderCorruptSegmentObject: one flipped payload byte in a stored
// segment object makes a reader's first search over it fail, rather than
// serve altered vectors (the image's checksums are verified at load).
func TestReaderCorruptSegmentObject(t *testing.T) {
	cl, d := newTestCluster(t, 2)
	col, err := cl.Writer().Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range col.SegmentKeys() {
		blob, err := cl.Store.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := colstore.DecodeSegmentFile(blob)
		if err != nil {
			t.Fatal(err)
		}
		blob[sf.Find(colstore.ExtentVectors, 0).Off+5] ^= 0x40
		if err := cl.Store.Put(key, blob); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := cl.Search("c", d.Row(0), core.SearchOptions{K: 5}); err == nil {
		t.Fatalf("search over corrupted segment objects answered %v", res)
	}
}

func TestWALTrimming(t *testing.T) {
	cl, _ := newTestCluster(t, 1)
	keys, err := cl.Store.List("wal/c/")
	if err != nil {
		t.Fatal(err)
	}
	// After Flush, WAL entries covered by the manifest are trimmed.
	if len(keys) != 0 {
		t.Fatalf("WAL not trimmed after flush: %v", keys)
	}
}

func TestCoordinatorHAFailover(t *testing.T) {
	c := NewCoordinator()
	c.RegisterReader("r1")
	c.BumpManifest("col")
	if err := c.KillLeader(); err != nil {
		t.Fatal(err)
	}
	// State survives leader loss.
	readers, err := c.Readers()
	if err != nil || len(readers) != 1 || readers[0] != "r1" {
		t.Fatalf("readers after failover: %v %v", readers, err)
	}
	v, err := c.ManifestVersion("col")
	if err != nil || v != 1 {
		t.Fatalf("manifest version after failover: %d %v", v, err)
	}
	// Updates continue on the new leader; a revived replica catches up.
	c.RegisterReader("r2")
	if err := c.ReviveReplica(0); err != nil {
		t.Fatal(err)
	}
	if c.AliveReplicas() != 3 {
		t.Fatalf("AliveReplicas = %d", c.AliveReplicas())
	}
	c.KillLeader()
	c.KillLeader()
	readers, err = c.Readers()
	if err != nil || len(readers) != 2 {
		t.Fatalf("readers on last replica: %v %v", readers, err)
	}
	if err := c.KillLeader(); err == nil {
		t.Fatal("losing the last replica did not error")
	}
	if _, err := c.Readers(); err == nil {
		t.Fatal("reads succeed with no replicas")
	}
}

func TestElasticScaleOutServesQueries(t *testing.T) {
	cl, d := newTestCluster(t, 1)
	q := dataset.Queries(d, 1, 8)
	res1, err := cl.Search("c", q, core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := cl.AddReader(); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := cl.Search("c", q, core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res1) != len(res2) {
		t.Fatalf("result count changed after scale-out: %d vs %d", len(res1), len(res2))
	}
	for i := range res1 {
		if res1[i].ID != res2[i].ID {
			t.Fatalf("results changed after scale-out at rank %d", i)
		}
	}
}

func TestReaderCacheHits(t *testing.T) {
	cl, d := newTestCluster(t, 2)
	q := dataset.Queries(d, 1, 9)
	for i := 0; i < 3; i++ {
		if _, err := cl.Search("c", q, core.SearchOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	var hits int64
	ids, _ := cl.Coord.Readers()
	for _, id := range ids {
		r, _ := cl.Reader(id)
		h, _ := r.CacheStats()
		hits += h
	}
	if hits == 0 {
		t.Fatal("segment cache never hit across repeated queries")
	}
}

func TestClusterOnS3SimWithFault(t *testing.T) {
	s3 := objstore.NewS3Sim(0)
	cl, err := NewCluster(s3, 2, writerCfg(), ReaderConfig{IndexRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	d := dataset.DeepLike(200, 10)
	attrs := dataset.Attributes(d.N, 100, 11)
	if err := cl.Writer().CreateCollection("c", clusterSchema(d.Dim)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Writer().Insert("c", entitiesFrom(d, attrs)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Writer().Flush("c"); err != nil {
		t.Fatal(err)
	}
	// Transient S3 failure during insert surfaces as an error and does not
	// corrupt the manifest state.
	s3.FailNext(1)
	if err := cl.Writer().Insert("c", entitiesFrom(d, attrs)[:1]); err == nil {
		t.Fatal("insert during S3 outage succeeded")
	}
	q := dataset.Queries(d, 1, 12)
	if _, err := cl.Search("c", q, core.SearchOptions{K: 5}); err != nil {
		t.Fatalf("search after outage: %v", err)
	}
}

func TestDistributedAttributeFiltering(t *testing.T) {
	cl, d := newTestCluster(t, 3)
	q := dataset.Queries(d, 1, 20)
	// Reconstruct the ground truth: attrs were generated with seed 2.
	attrs := dataset.Attributes(d.N, 10000, 2)
	res, err := cl.SearchFilteredCtx(context.Background(), "c", q, core.SearchOptions{K: 10}, &RangeFilter{Attr: "price", Lo: 0, Hi: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("filtered cluster search returned nothing")
	}
	for _, r := range res {
		a := attrs[r.ID-1] // entitiesFrom assigns ID = i+1
		if a < 0 || a > 3000 {
			t.Fatalf("id %d has attr %d outside [0,3000]", r.ID, a)
		}
	}
	// Unknown attribute surfaces as an error (every reader rejects it).
	if _, err := cl.SearchFilteredCtx(context.Background(), "c", q, core.SearchOptions{K: 5}, &RangeFilter{Attr: "nope", Lo: 0, Hi: 1}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	// Filtered and unfiltered results agree when the range covers everything.
	all, err := cl.SearchFilteredCtx(context.Background(), "c", q, core.SearchOptions{K: 10}, &RangeFilter{Attr: "price", Lo: 0, Hi: 99999})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := cl.Search("c", q, core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if all[i] == plain[i] {
			continue
		}
		// The filtered scan runs the pairwise kernels while the unfiltered
		// scan runs the blocked batch kernels; their summation orders
		// differ, so distances may disagree by ulps (documented 1e-5
		// relative tolerance) and ulp-close neighbors may swap ranks.
		diff := all[i].Distance - plain[i].Distance
		if diff < 0 {
			diff = -diff
		}
		scale := float32(1)
		if plain[i].Distance > scale {
			scale = plain[i].Distance
		}
		if diff > 1e-5*scale {
			t.Fatalf("covering filter changed results at %d: %v vs %v", i, all[i], plain[i])
		}
	}
}

// TestWriterRecoveryTornWALTail crashes the writer while its last WAL object
// is torn in shared storage — the shipping Put died mid-write, as S3 would
// leave a partial multipart upload. The object is one frame, the batch of
// one Insert: a batch is atomic, so Restart must bring back none of its
// rows, report nothing fatal, and never panic on the garbage tail.
func TestWriterRecoveryTornWALTail(t *testing.T) {
	cl, d := newTestCluster(t, 2)
	extra := make([]core.Entity, 10)
	for i := range extra {
		v := make([]float32, d.Dim)
		v[0] = float32(i)
		extra[i] = core.Entity{ID: int64(9000 + i), Vectors: [][]float32{v}, Attrs: []int64{1}}
	}
	if err := cl.Writer().Insert("c", extra); err != nil {
		t.Fatal(err)
	}
	keys, err := cl.Store.List("wal/c/")
	if err != nil || len(keys) == 0 {
		t.Fatalf("expected unflushed WAL batches: %v %v", keys, err)
	}
	last := keys[len(keys)-1]
	blob, err := cl.Store.Get(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: drop the final 3 bytes, corrupting only the frame's
	// CRC. Every row's bytes stay intact, and none may come back.
	if err := cl.Store.Put(last, blob[:len(blob)-3]); err != nil {
		t.Fatal(err)
	}
	cl.Writer().Crash()
	if err := cl.Writer().Restart(); err != nil {
		t.Fatalf("restart over torn WAL tail: %v", err)
	}
	col, err := cl.Writer().Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if got := col.Count(); got != 600 {
		t.Fatalf("Count after torn-tail recovery = %d, want the 600 base rows", got)
	}
	for _, e := range extra {
		if _, ok := col.Get(e.ID); ok {
			t.Fatalf("row %d of the torn batch resurrected: the batch was never durably shipped", e.ID)
		}
	}

	// A WAL blob truncated inside a frame header (fewer than 4 bytes) is
	// the degenerate tear; recovery must treat it as an empty batch.
	if err := cl.Writer().Insert("c", []core.Entity{{ID: 9100, Vectors: [][]float32{make([]float32, d.Dim)}, Attrs: []int64{1}}}); err != nil {
		t.Fatal(err)
	}
	keys, _ = cl.Store.List("wal/c/")
	last = keys[len(keys)-1]
	blob, _ = cl.Store.Get(last)
	if err := cl.Store.Put(last, blob[:2]); err != nil {
		t.Fatal(err)
	}
	cl.Writer().Crash()
	if err := cl.Writer().Restart(); err != nil {
		t.Fatalf("restart over header-torn WAL: %v", err)
	}
	col, _ = cl.Writer().Collection("c")
	if _, ok := col.Get(9100); ok {
		t.Fatal("record from header-torn batch resurrected")
	}
}

// TestWriterRestartAfterRejectedInsert: an insert the schema refuses — a
// vector of the wrong dimension, or a NaN the WAL cannot carry — fails
// before it ships, so it leaves no WAL object behind for Restart to
// refuse, and recovery brings back every row that was accepted.
func TestWriterRestartAfterRejectedInsert(t *testing.T) {
	cl, d := newTestCluster(t, 1)
	ok := core.Entity{ID: 7000, Vectors: [][]float32{make([]float32, d.Dim)}, Attrs: []int64{1}}
	if err := cl.Writer().Insert("c", []core.Entity{ok}); err != nil {
		t.Fatal(err)
	}
	nan := make([]float32, d.Dim)
	nan[3] = float32(math.NaN())
	for name, e := range map[string]core.Entity{
		"wrong dim": {ID: 7777, Vectors: [][]float32{make([]float32, d.Dim+1)}, Attrs: []int64{1}},
		"NaN":       {ID: 7778, Vectors: [][]float32{nan}, Attrs: []int64{1}},
	} {
		if err := cl.Writer().Insert("c", []core.Entity{e}); err == nil {
			t.Fatalf("%s: insert accepted", name)
		}
	}
	cl.Writer().Crash()
	if err := cl.Writer().Restart(); err != nil {
		t.Fatalf("restart after a rejected insert: %v", err)
	}
	col, err := cl.Writer().Collection("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, found := col.Get(7000); !found || col.Count() != d.N+1 {
		t.Fatalf("after restart: %d rows, id 7000 present %v; want %d and true", col.Count(), found, d.N+1)
	}
}

// TestWriterCarriesBinaryWords: a binary fingerprint's packed words cross
// the cluster writer's WAL frames as bits, whatever float they read as.
// Hamming and Tanimoto rows holding an all-ones word and a quiet NaN's
// pattern are accepted, Restart replays them bit for bit from the WAL, and
// after a flush a reader finds each row first at distance 0.
func TestWriterCarriesBinaryWords(t *testing.T) {
	cl, err := NewCluster(objstore.NewMemory(), 1, writerCfg(), ReaderConfig{IndexRows: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	words := [][2]uint32{{0xFFFFFFFF, 0x7FC00000}, {0x7FC00000, 0xFFFFFFFF}, {0x0F0F0F0F, 0xFFFFFFFF}, {0x00000001, 0x80000000}}
	ents := make([]core.Entity, len(words))
	for i, w := range words {
		ents[i] = core.Entity{ID: int64(i + 1), Vectors: [][]float32{{math.Float32frombits(w[0]), math.Float32frombits(w[1])}}}
	}
	for _, m := range []vec.Metric{vec.Hamming, vec.Tanimoto} {
		name := m.String()
		if err := cl.Writer().CreateCollection(name, core.Schema{VectorFields: []core.VectorField{{Name: "fp", Dim: 2, Metric: m}}}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Writer().Insert(name, ents); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cl.Writer().Crash()
		if err := cl.Writer().Restart(); err != nil {
			t.Fatalf("%s: restart: %v", name, err)
		}
		col, err := cl.Writer().Collection(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range ents {
			got, ok := col.Get(e.ID)
			if !ok || len(got.Vectors) != 1 || len(got.Vectors[0]) != 2 ||
				math.Float32bits(got.Vectors[0][0]) != words[i][0] || math.Float32bits(got.Vectors[0][1]) != words[i][1] {
				t.Fatalf("%s: id %d replayed as %+v (%v), want words %x", name, e.ID, got, ok, words[i])
			}
		}
		if err := cl.Writer().Flush(name); err != nil {
			t.Fatal(err)
		}
		for i, e := range ents {
			hits, err := cl.Search(name, e.Vectors[0], core.SearchOptions{K: 2})
			if err != nil || len(hits) == 0 || hits[0].ID != e.ID || hits[0].Distance != 0 {
				t.Errorf("%s: search for %x answered %v, %v; want id %d first at distance 0", name, words[i], hits, err, e.ID)
			}
		}
	}
}
