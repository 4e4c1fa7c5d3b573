package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/core"
	"vectordb/internal/index"
	"vectordb/internal/objstore"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// gateFixture holds the same rows three ways: in a 2-reader cluster, in a
// single-node core.Collection, and client-side for the brute-force oracle.
type gateFixture struct {
	cl   *Cluster
	col  *core.Collection
	ents []core.Entity
	dead map[int64]bool
}

const (
	gateDim    = 16
	gateNlist  = 16
	gateAttrHi = 1000 // attribute domain [0, gateAttrHi)
)

// gateOpts probes every bucket, so the IVF searches on both sides are exact
// and any disagreement with the oracle is the filter's.
func gateOpts(k int) core.SearchOptions { return core.SearchOptions{K: k, Nprobe: gateNlist} }

func newGateFixture(t testing.TB, n int) *gateFixture {
	t.Helper()
	ivf := map[string]string{"nlist": fmt.Sprint(gateNlist)}
	// The writer seals eight segments and indexes none; each reader builds
	// IVF_FLAT over what it loads. The single node seals three and indexes
	// them itself, so the two sides share rows but not segmentation.
	cl, err := NewCluster(objstore.NewMemory(), 2,
		core.Config{FlushRows: n / 8, FlushInterval: -1, MergeFactor: 1 << 20, IndexRows: 1 << 20, SyncIndex: true},
		ReaderConfig{IndexRows: 64, IndexParams: ivf})
	if err != nil {
		t.Fatal(err)
	}
	col, err := core.NewCollection("c", clusterSchema(gateDim), objstore.NewMemory(),
		core.Config{FlushRows: n/3 + 1, FlushInterval: -1, MergeFactor: 1 << 20, IndexRows: 64, IndexParams: ivf, SyncIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	if err := cl.Writer().CreateCollection("c", clusterSchema(gateDim)); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(41))
	ents := make([]core.Entity, n)
	for i := range ents {
		v := make([]float32, gateDim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		// IDs are neither dense nor positional: a compile that confused a
		// row ID with a build position would show.
		ents[i] = core.Entity{ID: 1000 + 3*int64(i), Vectors: [][]float32{v}, Attrs: []int64{int64(r.Intn(gateAttrHi))}}
	}
	f := &gateFixture{cl: cl, col: col, ents: ents, dead: map[int64]bool{}}
	if err := cl.Writer().Insert("c", ents); err != nil {
		t.Fatal(err)
	}
	if err := col.Insert(ents); err != nil {
		t.Fatal(err)
	}
	f.flush(t)
	return f
}

func (f *gateFixture) flush(t testing.TB) {
	t.Helper()
	if err := f.cl.Writer().Flush("c"); err != nil {
		t.Fatal(err)
	}
	if err := f.col.Flush(); err != nil {
		t.Fatal(err)
	}
}

func (f *gateFixture) delete(t testing.TB, ids ...int64) {
	t.Helper()
	if err := f.cl.Writer().Delete("c", ids); err != nil {
		t.Fatal(err)
	}
	if err := f.col.Delete(ids); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		f.dead[id] = true
	}
	f.flush(t) // tombstones reach the manifest and the snapshot at a flush
}

// oracle is the exact filtered top-k over the live client-side rows.
func (f *gateFixture) oracle(q []float32, k int, lo, hi int64) []topk.Result {
	dist := vec.L2.Dist()
	h := topk.New(k)
	for _, e := range f.ents {
		if !f.dead[e.ID] && lo <= e.Attrs[0] && e.Attrs[0] <= hi {
			h.Push(e.ID, dist(q, e.Vectors[0]))
		}
	}
	return h.Results()
}

func sortedIDs(rs []topk.Result) []int64 {
	ids := make([]int64, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// check runs one range-filtered query on both deployments and holds each to
// the oracle's result set.
func (f *gateFixture) check(t *testing.T, label string, q []float32, k int, lo, hi int64) []topk.Result {
	t.Helper()
	want := f.oracle(q, k, lo, hi)
	fromCluster, err := f.cl.SearchFilteredCtx(context.Background(), "c", q, gateOpts(k), &RangeFilter{Attr: "price", Lo: lo, Hi: hi})
	if err != nil {
		t.Fatalf("%s: cluster: %v", label, err)
	}
	fromNode, err := f.col.SearchFilteredCtx(context.Background(), q, "price", lo, hi, gateOpts(k))
	if err != nil {
		t.Fatalf("%s: single node: %v", label, err)
	}
	wantIDs := fmt.Sprint(sortedIDs(want))
	if got := fmt.Sprint(sortedIDs(fromCluster)); got != wantIDs {
		t.Fatalf("%s: cluster returned %s, oracle %s", label, got, wantIDs)
	}
	if got := fmt.Sprint(sortedIDs(fromNode)); got != wantIDs {
		t.Fatalf("%s: single node returned %s, oracle %s", label, got, wantIDs)
	}
	return want
}

// TestClusterEqualsSingleNode is the cluster ≡ single-node gate: the same
// rows behind a 2-reader cluster and one core.Collection, every bucket
// probed, the benchmark's three filter widths, before and after deletes —
// both must return exactly the brute-force oracle's rows.
func TestClusterEqualsSingleNode(t *testing.T) {
	const n, k = 6000, 10
	f := newGateFixture(t, n)

	// Both readers own segments, or the gate would only test one of them.
	man, err := LoadManifest(f.cl.Store, "c")
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := f.cl.Coord.Ring()
	owned := map[string]int{}
	for _, key := range man.SegmentKeys {
		owned[ring.Lookup(key)]++
	}
	if len(man.SegmentKeys) < 4 || len(owned) != 2 {
		t.Fatalf("fixture: %d segments owned as %v, want both readers loaded", len(man.SegmentKeys), owned)
	}

	r := rand.New(rand.NewSource(43))
	queries := make([][]float32, 6)
	for i := range queries {
		queries[i] = make([]float32, gateDim)
		for j := range queries[i] {
			queries[i][j] = float32(r.NormFloat64())
		}
	}
	widths := []int64{gateAttrHi / 100, gateAttrHi / 10, gateAttrHi / 2}
	ranges := make([][2]int64, 0, len(widths)*len(queries))
	for _, w := range widths {
		for range queries {
			lo := int64(r.Intn(gateAttrHi - int(w) + 1))
			ranges = append(ranges, [2]int64{lo, lo + w - 1})
		}
	}
	run := func(stage string) (top []int64) {
		for i, rg := range ranges {
			q := queries[i%len(queries)]
			want := f.check(t, fmt.Sprintf("%s range [%d,%d]", stage, rg[0], rg[1]), q, k, rg[0], rg[1])
			if len(want) > 0 {
				top = append(top, want[0].ID)
			}
		}
		// No range filter: the reader compiles tombstones alone, or nothing.
		for _, q := range queries {
			want := f.oracle(q, k, 0, gateAttrHi)
			got, err := f.cl.Search("c", q, gateOpts(k))
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprint(sortedIDs(got)), fmt.Sprint(sortedIDs(want)); g != w {
				t.Fatalf("%s unfiltered: cluster returned %s, oracle %s", stage, g, w)
			}
		}
		return top
	}

	top := run("no tombstones")
	if len(top) < len(ranges)/2 {
		t.Fatalf("only %d of %d ranges matched anything", len(top), len(ranges))
	}
	// Delete every range's nearest match — a row inside the range that was
	// in the answer — plus every 7th row wherever it falls.
	dead := append([]int64(nil), top...)
	for i := 0; i < n; i += 7 {
		dead = append(dead, f.ents[i].ID)
	}
	f.delete(t, dead...)
	for _, id := range run("tombstones") {
		if f.dead[id] {
			t.Fatalf("deleted row %d is the oracle's nearest match", id)
		}
	}
}

// TestReaderFilteredAllocs pins the reader's filtered search to the
// allocations of its unfiltered one plus the predicate value: the compiled
// bitset comes from the pool and goes back to it, whatever the range's
// width and whichever of the compile's two fill paths it takes.
func TestReaderFilteredAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pool Puts are randomly dropped under -race; alloc pin is meaningless")
	}
	f := newGateFixture(t, 6000)
	version, err := f.cl.Coord.ManifestVersion("c")
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := f.cl.Coord.Ring()
	rd, _ := f.cl.Reader(ring.Members()[0])
	q := f.ents[17].Vectors[0]
	ctx := context.Background()
	search := func(rf *RangeFilter) func() {
		return func() {
			if _, err := rd.SearchOwnedCtx(ctx, "c", version, ring, q, gateOpts(10), rf); err != nil {
				t.Fatal(err)
			}
		}
	}
	search(nil)() // load the shard and build its indexes
	base := testing.AllocsPerRun(50, search(nil))
	for _, hi := range []int64{gateAttrHi/100 - 1, gateAttrHi/10 - 1, gateAttrHi/2 - 1, gateAttrHi} {
		run := search(&RangeFilter{Attr: "price", Lo: 0, Hi: hi})
		run()
		if got := testing.AllocsPerRun(50, run); got > base+1 {
			t.Errorf("range [0,%d]: %.0f allocs per filtered search, %.0f unfiltered: the bitset is not pooled", hi, got, base)
		}
	}
	// With tombstones the unfiltered search takes the visibility bits the
	// manifest version resolved once: nothing is compiled or allocated per
	// query.
	f.delete(t, f.ents[3].ID, f.ents[4].ID)
	if version, err = f.cl.Coord.ManifestVersion("c"); err != nil {
		t.Fatal(err)
	}
	search(nil)()
	if got := testing.AllocsPerRun(50, search(nil)); got > base+1 {
		t.Errorf("tombstones: %.0f allocs per unfiltered search, %.0f without them", got, base)
	}
}

// TestReaderTombstonedScanStaysOnBatchKernels: a manifest whose only filter
// is a tombstone reaches an unindexed reader's scan as visibility bits
// beneath the blocked batch kernels, and the hits are brute force minus the
// deleted row.
func TestReaderTombstonedScanStaysOnBatchKernels(t *testing.T) {
	cl, d := newTestCluster(t, 1) // unindexed readers
	const victim, k = 17, 10
	if err := cl.Writer().Delete("c", []int64{victim + 1}); err != nil { // row i has ID i+1
		t.Fatal(err)
	}
	if err := cl.Writer().Flush("c"); err != nil {
		t.Fatal(err)
	}
	q := d.Row(victim)
	oracle := topk.New(k)
	for i := 0; i < d.N; i++ {
		if i != victim {
			oracle.Push(int64(i+1), vec.L2.Dist()(q, d.Row(i)))
		}
	}
	want := fmt.Sprint(sortedIDs(oracle.Results()))
	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	for _, pass := range []string{"resolving", "resolved"} {
		vec.ResetDispatchCounts()
		got, err := cl.Search("c", q, core.SearchOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if vec.BatchDispatchTotal() == 0 {
			t.Errorf("%s: tombstone-only manifest made no batch-kernel dispatches", pass)
		}
		if got := fmt.Sprint(sortedIDs(got)); got != want {
			t.Errorf("%s: got %s, want %s", pass, got, want)
		}
	}
}

// TestSearchRejectsBadRequest: a K or query the engine cannot run, a NaN
// in a float field's query among them, comes back as a request error from
// the router — it used to panic inside an exec-pool worker, which no
// caller can recover — and costs the ring no reader.
func TestSearchRejectsBadRequest(t *testing.T) {
	f := newGateFixture(t, 800)
	good := f.ents[0].Vectors[0]
	cases := []struct {
		name  string
		k     int
		query []float32
	}{
		{"K=0", 0, good},
		{"K=-1", -1, good},
		{"short query", 5, good[:gateDim-1]},
		{"long query", 5, append(append([]float32(nil), good...), 1)},
		{"nil query", 5, nil},
		{"NaN in query", 5, append(append([]float32(nil), good[:gateDim-1]...), float32(math.NaN()))},
	}
	for _, tc := range cases {
		for _, rf := range []*RangeFilter{nil, {Attr: "price", Lo: 0, Hi: 500}} {
			_, err := f.cl.SearchFilteredCtx(context.Background(), "c", tc.query, core.SearchOptions{K: tc.k}, rf)
			if err == nil {
				t.Fatalf("%s (filter %v): accepted", tc.name, rf != nil)
			}
			if errors.Is(err, ErrReaderDown) {
				t.Fatalf("%s: reported as a dead reader: %v", tc.name, err)
			}
		}
	}
	if members, _ := f.cl.Coord.Readers(); len(members) != 2 {
		t.Fatalf("bad requests deregistered readers: %v", members)
	}
	if _, err := f.cl.Search("c", good, gateOpts(5)); err != nil {
		t.Fatalf("good request after bad ones: %v", err)
	}
}

// readerFullCompile is the reference for a reader's filtered search: the
// range compiled at every position of each owned segment (the manifest's
// visibility ANDed in), then the same index search with that bitset, in the
// reader's segment order.
func readerFullCompile(t *testing.T, rd *Reader, ring *Ring, q []float32, pred colstore.Pred, p index.SearchParams, typ string) []topk.Result {
	t.Helper()
	rd.mu.RLock()
	rm, pool := rd.manifests["c"], rd.pool
	rd.mu.RUnlock()
	h := topk.New(p.K)
	for _, key := range rm.man.SegmentKeys {
		if ring.Lookup(key) != rd.ID {
			continue
		}
		v, err := pool.Get("c\x00" + key)
		if err != nil {
			t.Fatal(err)
		}
		seg := v.(*core.Segment)
		if idx := seg.Index(0); idx == nil || idx.Name() != typ {
			t.Fatalf("segment %s: index %v, want %s", key, idx, typ)
		}
		b, err := seg.CompileFilter(pred, rm.visibility(key, seg), nil)
		if err != nil {
			t.Fatal(err)
		}
		sp := p
		sp.Bits = b
		seg.SearchInto(h, &rm.schema, 0, q, sp)
		bitset.Put(b)
	}
	return h.Results()
}

// TestReaderProbeResolvedEqualsFullCompile: a reader resolves a range only
// at the probed buckets' positions of its IVF segments and must return, hit
// for hit, what the same probes return under the range compiled at every
// position — IVF_FLAT, IVF_SQ8 and IVF_PQ readers, widths 0, 1, 10, 50 and
// 100 %, with no tombstones and with 10 %.
func TestReaderProbeResolvedEqualsFullCompile(t *testing.T) {
	const n, k, nprobe = 3000, 10, 3
	r := rand.New(rand.NewSource(44))
	ents := make([]core.Entity, n)
	for i := range ents {
		v := make([]float32, gateDim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		ents[i] = core.Entity{ID: 1000 + 3*int64(i), Vectors: [][]float32{v}, Attrs: []int64{int64(r.Intn(gateAttrHi))}}
	}
	queries := make([][]float32, 4)
	for i := range queries {
		queries[i] = ents[r.Intn(n)].Vectors[0]
	}
	for _, typ := range []string{"IVF_FLAT", "IVF_SQ8", "IVF_PQ"} {
		t.Run(typ, func(t *testing.T) {
			cl, err := NewCluster(objstore.NewMemory(), 2,
				core.Config{FlushRows: n / 6, FlushInterval: -1, MergeFactor: 1 << 20, IndexRows: 1 << 20, SyncIndex: true},
				ReaderConfig{IndexRows: 64, IndexType: typ, IndexParams: map[string]string{"nlist": "16", "iter": "4"}})
			if err != nil {
				t.Fatal(err)
			}
			w := cl.Writer()
			if err := w.CreateCollection("c", clusterSchema(gateDim)); err != nil {
				t.Fatal(err)
			}
			if err := w.Insert("c", ents); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush("c"); err != nil {
				t.Fatal(err)
			}
			ring, _ := cl.Coord.Ring()
			for _, tomb := range []string{"none", "10%"} {
				if tomb == "10%" {
					var dead []int64
					for i := 0; i < n; i += 10 {
						dead = append(dead, ents[i].ID)
					}
					if err := w.Delete("c", dead); err != nil {
						t.Fatal(err)
					}
					if err := w.Flush("c"); err != nil {
						t.Fatal(err)
					}
				}
				version, err := cl.Coord.ManifestVersion("c")
				if err != nil {
					t.Fatal(err)
				}
				for _, width := range []int64{0, gateAttrHi / 100, gateAttrHi / 10, gateAttrHi / 2, gateAttrHi} {
					lo := int64(r.Intn(int(gateAttrHi-width) + 1))
					rf := &RangeFilter{Attr: "price", Lo: lo, Hi: lo + width - 1}
					pred := colstore.RangePred{Attr: 0, Lo: rf.Lo, Hi: rf.Hi}
					for qi, q := range queries {
						for _, id := range ring.Members() {
							rd, _ := cl.Reader(id)
							got, err := rd.SearchOwnedCtx(context.Background(), "c", version, ring, q, core.SearchOptions{K: k, Nprobe: nprobe}, rf)
							if err != nil {
								t.Fatal(err)
							}
							want := readerFullCompile(t, rd, ring, q, pred, index.SearchParams{K: k, Nprobe: nprobe}, typ)
							label := fmt.Sprintf("%s/tombstones=%s/width=%d/q%d/reader %s", typ, tomb, width, qi, id)
							if g, w := fmt.Sprint(got), fmt.Sprint(want); g != w {
								t.Fatalf("%s: probe-resolved %s, full compile %s", label, g, w)
							}
						}
					}
				}
			}
		})
	}
}
