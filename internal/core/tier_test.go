package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vectordb/internal/blockcache"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/objstore"
	"vectordb/internal/topk"
)

// tierTestConfig builds a tiered config whose block cache holds roughly
// 1/ratio of the dataset, forcing real eviction traffic during scans.
func tierTestConfig(t *testing.T, dim, rows, ratio int) Config {
	cfg := testConfig()
	cfg.TierDir = t.TempDir()
	if ratio > 0 {
		cfg.TierCacheBytes = int64(rows*dim*4) / int64(ratio)
	}
	return cfg
}

func fillBoth(t *testing.T, plain, tiered *Collection, ents []Entity) {
	t.Helper()
	// Identical flush boundaries on both sides: insert in FlushRows-sized
	// slices and flush after each, so segmentation is deterministic.
	for i := 0; i < len(ents); i += plain.cfg.FlushRows {
		j := i + plain.cfg.FlushRows
		if j > len(ents) {
			j = len(ents)
		}
		for _, c := range []*Collection{plain, tiered} {
			if err := c.Insert(ents[i:j]); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func sameHits(t *testing.T, label string, want, got []topk.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d hits vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || want[i].Distance != got[i].Distance {
			t.Fatalf("%s: hit %d differs: got (%d, %g) want (%d, %g)",
				label, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
}

// TestTieredConformance is the out-of-core correctness gate: a collection
// whose sealed segments live in mmap-backed extent files behind a block
// cache sized to a fraction of the dataset must return bit-identical
// results to the all-RAM collection — across unindexed scans, IVF_FLAT and
// IVF_SQ8 indexes, tombstone visibility bits and compiled pushdown filters.
func TestTieredConformance(t *testing.T) {
	const dim, rows = 16, 1000
	schema := Schema{
		VectorFields: []VectorField{{Name: "v", Dim: dim, Metric: 0}},
		AttrFields:   []string{"price"},
		CatFields:    []string{"brand"},
	}
	brands := []string{"acme", "globex", "initech"}
	base := mkEntities(rows, dim, 42)
	ents := make([]Entity, rows)
	for i, e := range base {
		e.Cats = []string{brands[i%len(brands)]}
		ents[i] = e
	}

	for _, idxType := range []string{"FLAT", "IVF_FLAT", "IVF_SQ8"} {
		t.Run(idxType, func(t *testing.T) {
			mkCfg := func(tiered bool) Config {
				var cfg Config
				if tiered {
					cfg = tierTestConfig(t, dim, rows, 10)
				} else {
					cfg = testConfig()
				}
				cfg.IndexType = idxType
				if idxType != "FLAT" {
					cfg.IndexRows = 64 // index every sealed segment
					cfg.IndexParams = map[string]string{"nlist": "8"}
				}
				return cfg
			}
			plain, err := NewCollection("plain", schema, objstore.NewMemory(), mkCfg(false))
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			tiered, err := NewCollection("tiered", schema, objstore.NewMemory(), mkCfg(true))
			if err != nil {
				t.Fatal(err)
			}
			defer tiered.Close()
			fillBoth(t, plain, tiered, ents)

			if ts := tiered.TierStats(); ts.Tiered == 0 {
				t.Fatal("no segments tiered")
			}
			if idxType != "FLAT" {
				// Indexed tiered segments must also externalize their IVF
				// fine payload: more tier files than segments.
				segs := tiered.Stats().Segments
				if ts := tiered.TierStats(); ts.Tiered <= segs {
					t.Fatalf("IVF payloads not externalized: %d tier files for %d segments", ts.Tiered, segs)
				}
			}
			for qi := 0; qi < 20; qi++ {
				if qi == 5 {
					// From here on every segment hides a third of its rows:
					// the plain searches run on the snapshot's visibility
					// bits, the pushdown searches on predicates ANDed with
					// them, before and after the demotion below.
					var dead []int64
					for id := int64(3); id <= rows; id += 3 {
						dead = append(dead, id)
					}
					for _, c := range []*Collection{plain, tiered} {
						if err := c.Delete(dead); err != nil {
							t.Fatal(err)
						}
						if err := c.Flush(); err != nil {
							t.Fatal(err)
						}
					}
				}
				if qi == 10 {
					// Mid-test demotion: the remaining queries promote data
					// and index-payload extents back from the object store.
					tiered.DemoteSegments()
				}
				q := ents[qi*37%rows].Vectors[0]
				opts := SearchOptions{K: 10, Nprobe: 4}

				want, err := plain.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tiered.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, fmt.Sprintf("plain q%d", qi), want, got)

				for _, r := range got {
					if qi >= 5 && r.ID%3 == 0 {
						t.Fatalf("q%d: deleted id %d returned", qi, r.ID)
					}
				}

				pred := colstore.AndPred{Preds: []colstore.Pred{
					colstore.RangePred{Attr: 0, Lo: 0, Hi: 6000},
					colstore.InPred{Cat: 0, Values: []string{"acme", "globex"}},
				}}
				want, err = plain.SearchPred(q, pred, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err = tiered.SearchPred(q, pred, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, fmt.Sprintf("pushdown q%d", qi), want, got)
			}

			// Point reads cross the tier too.
			for _, id := range []int64{1, 500, 999} {
				we, wok := plain.Get(id)
				ge, gok := tiered.Get(id)
				if wok != gok {
					t.Fatalf("Get(%d): ok %v vs %v", id, gok, wok)
				}
				if !wok {
					continue
				}
				for j := range we.Vectors[0] {
					if we.Vectors[0][j] != ge.Vectors[0][j] {
						t.Fatalf("Get(%d): vector differs at %d", id, j)
					}
				}
			}
		})
	}
}

// TestTieredConcurrentRecycle pins the view contract the block cache's
// frame recycling rests on: a block's bytes are reused for another block
// as soon as its entry is evicted and unpinned, so a scan reading a view
// after the next Block or Release would return another block's rows. With
// a budget of one block, four goroutines searching FLAT,
// IVF_FLAT (float frames of bucket blocks) and IVF_SQ8 (byte frames of
// bucket blocks) segments — unfiltered and behind a 50 % pushdown filter, across
// a mid-run demotion — must get exactly the all-RAM results while the
// cache serves most misses from recycled frames.
func TestTieredConcurrentRecycle(t *testing.T) {
	const dim, rows, workers, queries = 16, 2048, 4, 400
	ents := mkEntities(rows, dim, 31)
	half := colstore.RangePred{Attr: 0, Lo: 0, Hi: 4999}
	for _, idxType := range []string{"FLAT", "IVF_FLAT", "IVF_SQ8"} {
		t.Run(idxType, func(t *testing.T) {
			mkCfg := func(tiered bool) Config {
				cfg := testConfig()
				if tiered {
					// One shard holding one block (4-byte floats, or SQ8's
					// 1-byte codes), so the workers' misses evict and refill
					// each other's just-released blocks.
					block := index.ScanBlockRows * dim * 4
					if idxType == "IVF_SQ8" {
						block = index.ScanBlockRows * dim
					}
					cfg = tierTestConfig(t, dim, rows, 0)
					cfg.TierCache = blockcache.New(int64(block), 1)
				}
				cfg.IndexType = idxType
				if idxType != "FLAT" {
					cfg.IndexRows = 64
					cfg.IndexParams = map[string]string{"nlist": "8"}
				}
				return cfg
			}
			plain, err := NewCollection("plain", testSchema(dim), objstore.NewMemory(), mkCfg(false))
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			tcfg := mkCfg(true)
			tiered, err := NewCollection("tiered", testSchema(dim), objstore.NewMemory(), tcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer tiered.Close()
			fillBoth(t, plain, tiered, ents)

			search := func(c *Collection, qi int) ([]topk.Result, error) {
				q, opts := ents[qi*97%rows].Vectors[0], SearchOptions{K: 10, Nprobe: 4}
				if qi%2 == 1 {
					return c.SearchPred(q, half, opts)
				}
				return c.Search(q, opts)
			}
			want := make([][]topk.Result, queries)
			for qi := range want {
				if want[qi], err = search(plain, qi); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for qi := w; qi < queries; qi += workers {
						if w == 0 && qi == queries/2 {
							tiered.DemoteSegments()
						}
						got, err := search(tiered, qi)
						if err != nil {
							t.Errorf("q%d: %v", qi, err)
							return
						}
						if fmt.Sprint(got) != fmt.Sprint(want[qi]) {
							t.Errorf("q%d: tiered hits %v, all-RAM hits %v", qi, got, want[qi])
						}
					}
				}(w)
			}
			wg.Wait()
			st := tcfg.TierCache.Stats()
			if st.Misses == 0 || st.FrameAllocs >= st.Misses {
				t.Fatalf("frames not recycled: %d allocated for %d misses", st.FrameAllocs, st.Misses)
			}
		})
	}
}

// TestTieredProbeFillsBucketBlocks: an externalized IVF payload's cache
// blocks are the bucket runs a probe reads. On a cold cache one probe
// misses exactly ⌈len(b)/256⌉ blocks for each probed bucket b of every
// segment and fills exactly those buckets' bytes — no block straddles two
// buckets or reads past one — and the same probe again is all hits.
func TestTieredProbeFillsBucketBlocks(t *testing.T) {
	const dim, rows, segRows, nprobe = 16, 4096, 2048, 3
	ents := mkEntities(rows, dim, 37)
	for _, idxType := range []string{"IVF_FLAT", "IVF_SQ8"} {
		t.Run(idxType, func(t *testing.T) {
			cfg := tierTestConfig(t, dim, rows, 0)
			cfg.TierCache = blockcache.New(1<<30, 0) // nothing evicts
			cfg.FlushRows, cfg.MergeFactor = segRows, 1<<20
			cfg.IndexType, cfg.IndexRows = idxType, segRows
			cfg.IndexParams = map[string]string{"nlist": "4"}
			c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < rows; i += segRows {
				if err := c.Insert(ents[i : i+segRows]); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			cache := cfg.TierCache
			for qi, e := range []Entity{ents[5], ents[rows-9]} {
				q := e.Vectors[0]
				var blocks, bytes int64
				long := false // a probed bucket spans blocks and ends in a short one
				sn := c.AcquireSnapshot()
				for _, seg := range sn.Segments {
					idx := seg.Index(0)
					if u, ok := idx.(interface{ Unwrap() index.Index }); ok {
						idx = u.Unwrap()
					}
					iv, ok := idx.(*ivf.IVF)
					if !ok || !iv.Externalized() {
						t.Fatalf("segment %d: index %T not an externalized IVF", seg.ID, idx)
					}
					for _, b := range iv.ProbeOrder(q, nprobe) {
						n := int64(iv.BucketLen(b))
						long = long || (n > index.ScanBlockRows && n%index.ScanBlockRows != 0)
						blocks += (n + index.ScanBlockRows - 1) / index.ScanBlockRows
						bytes += n * int64(iv.CodeBytesPerVector())
					}
				}
				for _, seg := range sn.Segments { // a cold cache for every query
					cache.Drop(seg.tier.owner)
					for _, it := range seg.idxTiers() {
						cache.Drop(it.owner)
					}
				}
				segs := len(sn.Segments)
				c.ReleaseSnapshot(sn)
				if segs != rows/segRows || !long {
					t.Fatalf("%d segments (want %d), a multi-block bucket probed: %v", segs, rows/segRows, long)
				}
				before := cache.Stats()
				if before.Entries != 0 {
					t.Fatalf("q%d: cache not cold before the probe: %+v", qi, before)
				}
				opts := SearchOptions{K: 10, Nprobe: nprobe}
				if _, err := c.Search(q, opts); err != nil {
					t.Fatal(err)
				}
				mid := cache.Stats()
				if got := mid.Misses - before.Misses; got != blocks {
					t.Errorf("q%d: probe missed %d blocks, want Σ⌈len(b)/256⌉ = %d", qi, got, blocks)
				}
				if got := mid.FillBytes - before.FillBytes; got != bytes {
					t.Errorf("q%d: probe filled %d bytes, want the probed buckets' %d", qi, got, bytes)
				}
				if _, err := c.Search(q, opts); err != nil {
					t.Fatal(err)
				}
				after := cache.Stats()
				if after.Misses != mid.Misses || after.Hits-mid.Hits != blocks {
					t.Errorf("q%d: repeated probe: %d misses, %d hits, want 0 and %d",
						qi, after.Misses-mid.Misses, after.Hits-mid.Hits, blocks)
				}
			}
		})
	}
}

// TestTieredDemotePromote drives the full residency cycle: mapped → cold
// via DemoteSegments, then cold → mapped on the next query, with results
// identical before and after.
func TestTieredDemotePromote(t *testing.T) {
	const dim, rows = 8, 512
	cfg := tierTestConfig(t, dim, rows, 0)
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(rows, dim, 7)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	q := ents[100].Vectors[0]
	before, err := c.Search(q, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}

	n := c.DemoteSegments()
	if n == 0 {
		t.Fatal("nothing demoted")
	}
	st := c.TierStats()
	if st.MappedSegs != 0 || st.MappedBytes != 0 {
		t.Fatalf("after demote: %+v", st)
	}

	after, err := c.Search(q, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "demote/promote", before, after)
	if st := c.TierStats(); st.MappedSegs == 0 {
		t.Fatal("query did not promote any segment")
	}

	// Point lookups promote too.
	c.DemoteSegments()
	e, ok := c.Get(ents[3].ID)
	if !ok {
		t.Fatal("Get after demote failed")
	}
	for j, x := range ents[3].Vectors[0] {
		if e.Vectors[0][j] != x {
			t.Fatal("Get after demote returned wrong vector")
		}
	}
}

// TestTieredMappedBudget: a mapped-bytes budget keeps only the most
// recently used segments mapped, demoting the rest automatically.
func TestTieredMappedBudget(t *testing.T) {
	const dim = 8
	cfg := tierTestConfig(t, dim, 1024, 0)
	// Each 64-row segment's extent file is a bit over 64*8*4 = 2 KiB;
	// budget three files' worth so most of the 16 segments must stay cold.
	// Merging is off so the segment population stays put.
	cfg.TierMappedBytes = 3 * 64 * dim * 4
	cfg.MergeFactor = 1000
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(1024, dim, 9)
	for i := 0; i < len(ents); i += 64 {
		if err := c.Insert(ents[i : i+64]); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.TierStats()
	if st.Tiered < 4 {
		t.Fatalf("expected several tiered segments, got %+v", st)
	}
	if st.MappedBytes > cfg.TierMappedBytes {
		t.Fatalf("mapped bytes %d exceed budget %d", st.MappedBytes, cfg.TierMappedBytes)
	}
	if st.MappedSegs == st.Tiered {
		t.Fatalf("budget demoted nothing: %+v", st)
	}
	// Queries promote on demand and still see every row.
	res, err := c.Search(ents[1000].Vectors[0], SearchOptions{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != ents[1000].ID || res[0].Distance != 0 {
		t.Fatalf("self-search across cold segments = %v", res)
	}
	if st := c.TierStats(); st.MappedBytes > cfg.TierMappedBytes {
		t.Fatalf("budget violated after queries: %+v", st)
	}
}

// TestTieredRestore: the stateless-restart path re-tiers restored segments
// and answers identically.
func TestTieredRestore(t *testing.T) {
	const dim, rows = 8, 300
	store := objstore.NewMemory()
	cfg := tierTestConfig(t, dim, rows, 4)
	c, err := NewCollection("t", testSchema(dim), store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ents := mkEntities(rows, dim, 11)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	keys := c.SegmentKeys()
	tombs := c.Tombstones()
	q := ents[42].Vectors[0]
	want, err := c.Search(q, SearchOptions{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.TierDir = t.TempDir() // fresh node: no local extent files
	restored, err := RestoreCollection("t", testSchema(dim), store, rcfg, keys, tombs)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if st := restored.TierStats(); st.Tiered == 0 {
		t.Fatal("restore did not tier segments")
	}
	got, err := restored.Search(q, SearchOptions{K: 7})
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "restore", want, got)
}

// TestTieredIndexRebuild: manually rebuilding an already-externalized
// field replaces its payload tier. The replaced tier's teardown must not
// take the replacement's extent file or store object with it (tier files
// and store keys are unique per externalization), and the collection's
// store must hold exactly one payload object per live (segment, field)
// afterwards, beside one object per live segment.
func TestTieredIndexRebuild(t *testing.T) {
	const dim, rows = 8, 512
	store := objstore.NewMemory()
	cfg := tierTestConfig(t, dim, rows, 4)
	cfg.IndexType = "IVF_FLAT"
	cfg.IndexRows = 64
	cfg.IndexParams = map[string]string{"nlist": "4"}
	c, err := NewCollection("t", testSchema(dim), store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(rows, dim, 17)
	for i := 0; i < rows; i += 64 {
		if err := c.Insert(ents[i : i+64]); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	q := ents[77].Vectors[0]
	opts := SearchOptions{K: 10, Nprobe: 4} // nprobe = nlist: exact
	want, err := c.Search(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		if err := c.BuildIndex("v", "IVF_FLAT", map[string]string{"nlist": "4"}); err != nil {
			t.Fatal(err)
		}
		// Demote everything: the next search promotes the replacement
		// payload extents from the store — a rebuild that clobbered its
		// successor's store object would come back empty.
		c.DemoteSegments()
		got, err := c.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, fmt.Sprintf("rebuild %d", round), want, got)
	}
	segs := c.Stats().Segments
	keys, err := store.List("col/t/ivfext/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != segs {
		t.Fatalf("%d payload objects for %d live segments (rebuild leaked or clobbered)", len(keys), segs)
	}
	if n := len(segmentObjects(t, store, "t")); n != segs {
		t.Fatalf("%d segment objects for %d live segments", n, segs)
	}
	assertNoExtKeys(t, store, "t")
}

// TestTieredGC: merged-away segments release their storage — their one
// store object each is deleted and the cache drops their blocks.
func TestTieredGC(t *testing.T) {
	const dim = 8
	store := objstore.NewMemory()
	cfg := tierTestConfig(t, dim, 1024, 0)
	cfg.MergeFactor = 4
	c, err := NewCollection("t", testSchema(dim), store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(1024, dim, 13)
	for i := 0; i < len(ents); i += 64 {
		if err := c.Insert(ents[i : i+64]); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if n := len(segmentObjects(t, store, "t")); n != st.Segments {
		t.Fatalf("%d segment objects for %d live segments (merge GC leaked)", n, st.Segments)
	}
	assertNoExtKeys(t, store, "t")
	if ts := c.TierStats(); ts.Tiered != st.Segments {
		t.Fatalf("%d tiered registrations for %d live segments", ts.Tiered, st.Segments)
	}
}

// TestDBTierDefaults: EnableTiering makes every collection created
// afterwards out-of-core by default, all of them sharing one block cache
// whose series are registered once at the database scope.
func TestDBTierDefaults(t *testing.T) {
	const dim = 8
	db := NewDB(nil)
	defer db.Close()
	db.EnableTiering(TierDefaults{Dir: t.TempDir(), CacheBytes: 1 << 20})

	ents := mkEntities(256, dim, 23)
	for _, name := range []string{"a", "b"} {
		c, err := db.CreateCollection(name, testSchema(dim), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Insert(ents); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if ts := c.TierStats(); ts.Tiered == 0 {
			t.Fatalf("collection %q did not inherit the DB tier defaults", name)
		}
		res, err := c.Search(ents[9].Vectors[0], SearchOptions{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != ents[9].ID || res[0].Distance != 0 {
			t.Fatalf("collection %q self-search through the shared cache = %v", name, res)
		}
	}

	// Exactly one shared cache series family: scoped to the DB, never
	// re-registered per collection.
	var buf bytes.Buffer
	if err := db.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "vectordb_blockcache_hits_total{"); n != 1 {
		t.Fatalf("%d blockcache hit series, want 1 shared (scope=db)", n)
	}
	if !strings.Contains(buf.String(), `vectordb_blockcache_hits_total{scope="db"}`) {
		t.Fatal("shared cache series missing the db scope label")
	}
	if !strings.Contains(buf.String(), `vectordb_blockcache_frame_allocs_total{scope="db"}`) {
		t.Fatal("shared cache exports no frame-allocation counter")
	}
	if !strings.Contains(buf.String(), `vectordb_blockcache_fill_bytes_total{scope="db"}`) {
		t.Fatal("shared cache exports no fill-bytes counter")
	}
}
