package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// tierTestConfig builds a tiered config: every sealed segment's vectors
// move out of the heap into a mapped extent file.
func tierTestConfig(t *testing.T) Config {
	cfg := testConfig()
	cfg.TierDir = t.TempDir()
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
// whose sealed segments live in mmap-backed extent files, scanned in place,
// must return bit-identical results to the all-RAM collection — across unindexed scans, IVF_FLAT and
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
					cfg = tierTestConfig(t)
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

				want, err := hitsOf(plain, Request{Vector: q, SearchOptions: opts})
				if err != nil {
					t.Fatal(err)
				}
				got, err := hitsOf(tiered, Request{Vector: q, SearchOptions: opts})
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
				want, err = hitsOf(plain, Request{Vector: q, Pred: pred, SearchOptions: opts})
				if err != nil {
					t.Fatal(err)
				}
				got, err = hitsOf(tiered, Request{Vector: q, Pred: pred, SearchOptions: opts})
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

// TestTieredConcurrentRecycle pins the view contract of in-place mapped
// reads: a scan reads the mapping only while it holds the pin it took, so
// demotes and destroys running beside it can never unmap bytes it is still
// reading. Four goroutines search FLAT, IVF_FLAT and IVF_SQ8 segments —
// unfiltered and behind a 50 % pushdown filter — while another demotes
// every unpinned segment and flushes far-away rows whose segments (data
// and IVF payload tiers) merge and are garbage-collected. Every result
// must equal the all-RAM one, and at quiesce no tier holds a pin and the
// mapped total is exactly the live mapped files' size.
func TestTieredConcurrentRecycle(t *testing.T) {
	const dim, rows, workers, queries = 16, 2048, 4, 400
	ents := mkEntities(rows, dim, 31)
	half := colstore.RangePred{Attr: 0, Lo: 0, Hi: 4999}
	for _, idxType := range []string{"FLAT", "IVF_FLAT", "IVF_SQ8"} {
		t.Run(idxType, func(t *testing.T) {
			params := map[string]string{"nlist": "8"}
			mkCfg := func(tiered bool) Config {
				cfg := testConfig()
				if tiered {
					cfg = tierTestConfig(t)
				}
				// 256-row segments never merge again, so the queried rows
				// keep the all-RAM side's segmentation while the far rows'
				// 64-row segments merge and are collected under the scans.
				cfg.MaxSegmentRows = 256
				cfg.IndexType = idxType
				if idxType != "FLAT" {
					cfg.IndexRows = 64
					cfg.IndexParams = params
				}
				return cfg
			}
			plain, err := NewCollection("plain", testSchema(dim), objstore.NewMemory(), mkCfg(false))
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()
			tiered, err := NewCollection("tiered", testSchema(dim), objstore.NewMemory(), mkCfg(true))
			if err != nil {
				t.Fatal(err)
			}
			defer tiered.Close()
			fillBoth(t, plain, tiered, ents)

			search := func(c *Collection, qi int) ([]topk.Result, error) {
				q, opts := ents[qi*97%rows].Vectors[0], SearchOptions{K: 10, Nprobe: 4}
				if qi%2 == 1 {
					return hitsOf(c, Request{Vector: q, Pred: half, SearchOptions: opts})
				}
				return hitsOf(c, Request{Vector: q, SearchOptions: opts})
			}
			want := make([][]topk.Result, queries)
			for qi := range want {
				if want[qi], err = search(plain, qi); err != nil {
					t.Fatal(err)
				}
			}

			// Far rows: no query ranks them, and the filter excludes them.
			far := mkEntities(64, dim, 32)
			for i := range far {
				for j := range far[i].Vectors[0] {
					far[i].Vectors[0][j] += 1000
				}
				far[i].Attrs[0] = 99999
			}
			stop := make(chan struct{})
			churned := make(chan error, 1)
			go func() {
				// At least four rounds: four far segments merge, so one
				// segment GC runs whenever the scans finish first.
				for round := 0; ; round++ {
					if round >= 4 {
						select {
						case <-stop:
							churned <- nil
							return
						default:
						}
					}
					tiered.DemoteSegments()
					batch := make([]Entity, len(far))
					for i, e := range far {
						e.ID = int64(rows + 1 + round*len(far) + i)
						batch[i] = e
					}
					if err := tiered.Insert(batch); err != nil {
						churned <- err
						return
					}
					if err := tiered.Flush(); err != nil {
						churned <- err
						return
					}
					// A manual rebuild swaps every segment's IVF index and
					// replaces its payload tier under the running scans.
					if idxType != "FLAT" {
						if err := tiered.BuildIndex("v", idxType, params); err != nil {
							churned <- err
							return
						}
					}
				}
			}()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for qi := w; qi < queries; qi += workers {
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
			close(stop)
			if err := <-churned; err != nil {
				t.Fatal(err)
			}
			checkTierQuiesced(t, tiered)
		})
	}
}

// checkTierQuiesced asserts that no tier of c holds a pin and that the
// mapped total is exactly the summed size of the mapped files.
func checkTierQuiesced(t *testing.T, c *Collection) {
	t.Helper()
	ct := c.tier
	ct.mu.Lock()
	defer ct.mu.Unlock()
	var mapped int64
	for _, st := range ct.segs {
		st.mu.Lock()
		pins := st.pins
		if st.mf != nil {
			mapped += int64(st.mf.Size())
		}
		st.mu.Unlock()
		if pins != 0 {
			t.Errorf("segment %d tier %d: %d pins at quiesce", st.segID, st.id, pins)
		}
	}
	if mapped != ct.mapped {
		t.Errorf("mapped total %d, live mapped files %d", ct.mapped, mapped)
	}
}

// tierFixture returns a tiered collection of four 64-row FLAT segments,
// each one mapped data tier, and those tiers.
func tierFixture(t *testing.T) (*Collection, []*segTier) {
	t.Helper()
	const dim = 8
	cfg := tierTestConfig(t)
	cfg.MergeFactor = 1 << 20
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ents := mkEntities(4*64, dim, 41)
	for i := 0; i < len(ents); i += 64 {
		if err := c.Insert(ents[i : i+64]); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	var tiers []*segTier
	for _, seg := range sn.Segments {
		tiers = append(tiers, seg.tier)
	}
	if st := c.TierStats(); len(tiers) != 4 || st.Tiered != 4 || st.MappedSegs != 4 {
		t.Fatalf("fixture: %d segments, %+v; want 4 mapped tiers", len(tiers), st)
	}
	return c, tiers
}

// TestTieredDestroyWhilePinnedUnmaps: a tier destroyed while a reader pins
// it keeps its mapping for that reader, and the reader's release — the
// last one — closes the mapping and takes its bytes off the mapped total.
func TestTieredDestroyWhilePinnedUnmaps(t *testing.T) {
	c, tiers := tierFixture(t)
	before := c.TierStats().MappedBytes
	victim := tiers[1]
	mf, release, err := victim.acquire()
	if err != nil {
		t.Fatal(err)
	}
	size := int64(mf.Size())
	victim.destroy()
	if !victim.isMapped() {
		t.Fatal("destroy unmapped a pinned tier")
	}
	release()
	if victim.isMapped() {
		t.Fatal("the last release of a destroyed tier left its mapping open")
	}
	st := c.TierStats()
	if st.Tiered != 3 || st.MappedBytes != before-size {
		t.Fatalf("after destroy and release: %+v, want 3 tiers and %d mapped bytes", st, before-size)
	}
}

// TestTieredBudgetSkipsPinnedVictim: when the least-recently-used mapped
// tier is pinned, budget enforcement demotes the unpinned tiers behind it
// in LRU order instead of giving up.
func TestTieredBudgetSkipsPinnedVictim(t *testing.T) {
	c, tiers := tierFixture(t)
	// Pin one tier first and touch the rest after it: the pinned tier is
	// the least recently used.
	_, release, err := tiers[2].acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	for i, st := range tiers {
		if i == 2 {
			continue
		}
		_, rel, err := st.acquire()
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	c.tier.budget = 1
	c.tier.enforceBudget()
	for i, st := range tiers {
		if mapped := st.isMapped(); mapped != (i == 2) {
			t.Errorf("tier %d mapped=%v; want only the pinned tier mapped", i, mapped)
		}
	}
	if st := c.TierStats(); st.MappedSegs != 1 {
		t.Fatalf("after enforcing a 1-byte budget: %+v, want the pinned tier alone mapped", st)
	}
}

// tierPins reports t's pin count.
func tierPins(t *segTier) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.pins
}

// mappedExtent finds extent (kind, field 0) in t's current mapping; the
// caller holds a pin, so the mapping is open.
func mappedExtent(t *segTier, kind uint32) *colstore.Extent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.mf.Find(kind, 0)
}

// TestTieredVectorDataInPlace: a tiered segment's vectorData is its data
// extent's floats read in place — the rows the segment holds, aliasing
// the mapping rather than a copy — and it holds exactly one pin, which
// its release drops. vectorRows serves the same rows from the same pin.
func TestTieredVectorDataInPlace(t *testing.T) {
	c, _ := tierFixture(t)
	ents := mkEntities(4*64, 8, 41)
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	for _, seg := range sn.Segments {
		data, release, err := seg.vectorData(0)
		if err != nil {
			t.Fatal(err)
		}
		if p := tierPins(seg.tier); p != 1 {
			t.Fatalf("segment %d: %d pins while vectorData is held, want 1", seg.ID, p)
		}
		mapped := mappedExtent(seg.tier, colstore.ExtentVectors).Floats()
		if &data[0] != &mapped[0] || len(data) != len(mapped) {
			t.Fatalf("segment %d: vectorData is not the mapped extent", seg.ID)
		}
		row, relRows, err := seg.vectorRows(0)
		if err != nil {
			t.Fatal(err)
		}
		dim := seg.Vectors[0].Dim
		for r, id := range seg.IDs {
			want := ents[id-1].Vectors[0]
			for j := range want {
				if data[r*dim+j] != want[j] || row(r)[j] != want[j] {
					t.Fatalf("segment %d row %d (id %d) differs from the inserted vector", seg.ID, r, id)
				}
			}
		}
		relRows()
		release()
		if p := tierPins(seg.tier); p != 0 {
			t.Fatalf("segment %d: %d pins after release", seg.ID, p)
		}
	}
}

// TestTieredVectorRowsPromotesCold: reading a cold segment's rows maps it
// back in, and the rows read through the new mapping are the inserted ones.
func TestTieredVectorRowsPromotesCold(t *testing.T) {
	c, _ := tierFixture(t)
	ents := mkEntities(4*64, 8, 41)
	if n := c.DemoteSegments(); n != 4 {
		t.Fatalf("demoted %d of 4 segments", n)
	}
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	seg := sn.Segments[2]
	row, release, err := seg.vectorRows(0)
	if err != nil {
		t.Fatal(err)
	}
	for r, id := range seg.IDs {
		for j, x := range ents[id-1].Vectors[0] {
			if row(r)[j] != x {
				t.Fatalf("row %d (id %d) differs after promotion", r, id)
			}
		}
	}
	release()
	if !seg.tier.isMapped() {
		t.Fatal("reading a cold segment's rows did not map it")
	}
	if st := c.TierStats(); st.MappedSegs != 1 {
		t.Fatalf("after one cold read: %+v, want one mapped segment", st)
	}
	checkTierQuiesced(t, c)
}

// TestTieredDemoteRefusedWhilePinned: a pinned tier keeps its mapping and
// its local file through a demote; once the pin is released the same
// demote frees the mapping's bytes and removes the file.
func TestTieredDemoteRefusedWhilePinned(t *testing.T) {
	c, tiers := tierFixture(t)
	st := tiers[0]
	mf, release, err := st.acquire()
	if err != nil {
		t.Fatal(err)
	}
	size := int64(mf.Size())
	before := c.TierStats().MappedBytes
	if c.tier.evict(st) {
		t.Fatal("a pinned tier was demoted")
	}
	if _, err := os.Stat(st.path); err != nil || !st.isMapped() {
		t.Fatalf("pinned tier lost its mapping or file: mapped=%v, %v", st.isMapped(), err)
	}
	release()
	if !c.tier.evict(st) {
		t.Fatal("an unpinned mapped tier was not demoted")
	}
	if after := c.TierStats().MappedBytes; after != before-size {
		t.Fatalf("mapped total %d after demoting %d of %d bytes", after, size, before)
	}
	if _, err := os.Stat(st.path); !os.IsNotExist(err) {
		t.Fatalf("demoted tier's local file is still there: %v", err)
	}
	checkTierQuiesced(t, c)
}

// TestTieredAcquirePromotesCold: acquiring a cold tier fetches its extent
// file back, maps it and adds its size to the mapped total.
func TestTieredAcquirePromotesCold(t *testing.T) {
	c, tiers := tierFixture(t)
	c.DemoteSegments()
	if st := c.TierStats(); st.MappedSegs != 0 || st.MappedBytes != 0 {
		t.Fatalf("after demoting everything: %+v", st)
	}
	st := tiers[3]
	mf, release, err := st.acquire()
	if err != nil {
		t.Fatal(err)
	}
	size := int64(mf.Size())
	if mf.Find(colstore.ExtentVectors, 0) == nil {
		t.Fatal("promoted mapping lacks the vector extent")
	}
	release()
	if _, err := os.Stat(st.path); err != nil {
		t.Fatalf("promotion did not write the local extent file: %v", err)
	}
	if ts := c.TierStats(); ts.MappedSegs != 1 || ts.MappedBytes != size {
		t.Fatalf("after one promotion: %+v, want 1 mapped segment of %d bytes", ts, size)
	}
	checkTierQuiesced(t, c)
}

// TestTieredAcquireAfterDestroyFails: an unpinned tier destroyed by GC
// drops its mapping, its local file and its store copy at once, and a
// later acquire fails instead of promoting it back.
func TestTieredAcquireAfterDestroyFails(t *testing.T) {
	c, tiers := tierFixture(t)
	st := tiers[0]
	st.destroy()
	if st.isMapped() {
		t.Fatal("destroy left an unpinned mapping open")
	}
	if _, err := os.Stat(st.path); !os.IsNotExist(err) {
		t.Fatalf("destroyed tier's local file is still there: %v", err)
	}
	if _, err := c.tier.store.Get(st.key); err == nil {
		t.Fatal("destroyed tier's store copy is still there")
	}
	if _, release, err := st.acquire(); err == nil {
		release()
		t.Fatal("acquire of a destroyed tier succeeded")
	}
	if ts := c.TierStats(); ts.Tiered != 3 || ts.MappedSegs != 3 {
		t.Fatalf("after destroying one of 4 tiers: %+v", ts)
	}
	checkTierQuiesced(t, c)
}

// TestTieredReleaseEnforcesBudget: pins may hold a collection over its
// mapped budget, and each last release re-enforces it, so the released
// tiers demote until the still-pinned one alone fits.
func TestTieredReleaseEnforcesBudget(t *testing.T) {
	c, tiers := tierFixture(t)
	releases := make([]func(), len(tiers))
	var last int64
	for i, st := range tiers {
		mf, release, err := st.acquire()
		if err != nil {
			t.Fatal(err)
		}
		releases[i] = release
		last = int64(mf.Size())
	}
	c.tier.budget = last
	c.tier.enforceBudget()
	if ts := c.TierStats(); ts.MappedSegs != 4 {
		t.Fatalf("enforcement demoted a pinned tier: %+v", ts)
	}
	for i := 0; i < 3; i++ {
		releases[i]()
		if tiers[i].isMapped() {
			t.Fatalf("tier %d still mapped after its last release over budget", i)
		}
	}
	releases[3]()
	if !tiers[3].isMapped() {
		t.Fatal("the tier that fits the budget was demoted")
	}
	if ts := c.TierStats(); ts.MappedSegs != 1 || ts.MappedBytes > c.tier.budget {
		t.Fatalf("after every release: %+v, budget %d", ts, c.tier.budget)
	}
	checkTierQuiesced(t, c)
}

// TestTieredBudgetDemotesInLRUOrder: enforcing a budget demotes the least
// recently used tiers first and stops as soon as the rest fit.
func TestTieredBudgetDemotesInLRUOrder(t *testing.T) {
	c, tiers := tierFixture(t)
	sizes := make([]int64, len(tiers))
	for _, i := range []int{3, 1, 0, 2} { // least recently used first
		mf, release, err := tiers[i].acquire()
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = int64(mf.Size())
		release()
	}
	c.tier.budget = sizes[0] + sizes[2]
	c.tier.enforceBudget()
	for i, st := range tiers {
		if want := i == 0 || i == 2; st.isMapped() != want {
			t.Errorf("tier %d mapped=%v, want %v", i, st.isMapped(), want)
		}
	}
	checkTierQuiesced(t, c)
}

// TestTieredDemoteAllSkipsPinned: DemoteSegments demotes every unpinned
// tier, leaves a pinned one mapped, and demotes that one once released.
func TestTieredDemoteAllSkipsPinned(t *testing.T) {
	c, tiers := tierFixture(t)
	_, release, err := tiers[1].acquire()
	if err != nil {
		t.Fatal(err)
	}
	if n := c.DemoteSegments(); n != 3 {
		t.Fatalf("demoted %d tiers with one of 4 pinned, want 3", n)
	}
	if !tiers[1].isMapped() {
		t.Fatal("the pinned tier was demoted")
	}
	release()
	if n := c.DemoteSegments(); n != 1 {
		t.Fatalf("demoted %d tiers after the release, want 1", n)
	}
	if ts := c.TierStats(); ts.MappedSegs != 0 || ts.MappedBytes != 0 {
		t.Fatalf("after demoting everything: %+v", ts)
	}
}

// TestTieredMissingExtentLeavesNoPin: asking a data tier for an extent it
// does not hold (an IVF payload) fails without leaving the mapping pinned,
// so the tier can still demote.
func TestTieredMissingExtentLeavesNoPin(t *testing.T) {
	c, tiers := tierFixture(t)
	p := &tierIVFExt{t: tiers[0], field: 0}
	if _, _, err := p.OpenFloats(); err == nil {
		t.Fatal("a data tier served an IVF_FLAT payload")
	}
	if _, _, err := p.OpenBytes(); err == nil {
		t.Fatal("a data tier served an IVF_SQ8 payload")
	}
	if pins := tierPins(tiers[0]); pins != 0 {
		t.Fatalf("%d pins left by failed opens", pins)
	}
	if n := c.DemoteSegments(); n != 4 {
		t.Fatalf("demoted %d of 4 tiers after failed opens", n)
	}
}

// TestTieredProbeReadsMappedPayload: an externalized IVF payload is served
// from its own mapped extent file, in place — the slice a sweep gets is
// the build-order payload the resident index would hold, pinned for the
// sweep — and a probe of a cold collection maps the payload tiers back in
// and leaves no pin behind.
func TestTieredProbeReadsMappedPayload(t *testing.T) {
	const dim, rows, segRows = 16, 2048, 1024
	ents := mkEntities(rows, dim, 37)
	for _, idxType := range []string{"IVF_FLAT", "IVF_SQ8"} {
		t.Run(idxType, func(t *testing.T) {
			mk := func(cfg Config) *Collection {
				cfg.FlushRows, cfg.MergeFactor = segRows, 1<<20
				cfg.IndexType, cfg.IndexRows = idxType, segRows
				cfg.IndexParams = map[string]string{"nlist": "4"}
				c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				return c
			}
			plain, tiered := mk(testConfig()), mk(tierTestConfig(t))
			fillBoth(t, plain, tiered, ents)
			unwrap := func(idx index.Index) *ivf.IVF {
				if u, ok := idx.(interface{ Unwrap() index.Index }); ok {
					idx = u.Unwrap()
				}
				iv, ok := idx.(*ivf.IVF)
				if !ok {
					t.Fatalf("index %T is not an IVF", idx)
				}
				return iv
			}
			psn, tsn := plain.AcquireSnapshot(), tiered.AcquireSnapshot()
			defer plain.ReleaseSnapshot(psn)
			defer tiered.ReleaseSnapshot(tsn)
			if len(psn.Segments) != rows/segRows || len(tsn.Segments) != len(psn.Segments) {
				t.Fatalf("%d plain and %d tiered segments, want %d each", len(psn.Segments), len(tsn.Segments), rows/segRows)
			}
			for i, seg := range tsn.Segments {
				if !unwrap(seg.Index(0)).Externalized() {
					t.Fatalf("segment %d: IVF payload not externalized", seg.ID)
				}
				wantF, wantC, _ := unwrap(psn.Segments[i].Index(0)).ResidentPayload()
				it := seg.payloads[0]
				if it == nil {
					t.Fatalf("segment %d: no payload tier", seg.ID)
				}
				p := &tierIVFExt{t: it, field: 0}
				var release func()
				if idxType == "IVF_FLAT" {
					got, rel, err := p.OpenFloats()
					if err != nil {
						t.Fatal(err)
					}
					release = rel
					if len(got) != len(wantF) || len(got) == 0 {
						t.Fatalf("segment %d: payload of %d floats, resident has %d", seg.ID, len(got), len(wantF))
					}
					for j := range got {
						if got[j] != wantF[j] {
							t.Fatalf("segment %d: payload float %d differs from the resident index", seg.ID, j)
						}
					}
					if &got[0] != &mappedExtent(it, colstore.ExtentIVFVecs).Floats()[0] {
						t.Fatalf("segment %d: the payload is a copy, not the mapped extent", seg.ID)
					}
				} else {
					got, rel, err := p.OpenBytes()
					if err != nil {
						t.Fatal(err)
					}
					release = rel
					if !bytes.Equal(got, wantC) || len(got) == 0 {
						t.Fatalf("segment %d: payload codes differ from the resident index", seg.ID)
					}
					if &got[0] != &mappedExtent(it, colstore.ExtentIVFCodes).Payload[0] {
						t.Fatalf("segment %d: the payload is a copy, not the mapped extent", seg.ID)
					}
				}
				if freed := it.demote(); freed != 0 {
					t.Fatalf("segment %d: a payload pinned for a sweep demoted", seg.ID)
				}
				release()
			}
			if n := tiered.DemoteSegments(); n != 2*len(tsn.Segments) {
				t.Fatalf("demoted %d tiers, want a data and a payload tier per segment", n)
			}
			opts := SearchOptions{K: 10, Nprobe: 4}
			for _, e := range []Entity{ents[5], ents[rows-9]} {
				want, err := hitsOf(plain, Request{Vector: e.Vectors[0], SearchOptions: opts})
				if err != nil {
					t.Fatal(err)
				}
				got, err := hitsOf(tiered, Request{Vector: e.Vectors[0], SearchOptions: opts})
				if err != nil {
					t.Fatal(err)
				}
				sameHits(t, idxType, want, got)
			}
			for _, seg := range tsn.Segments {
				if !seg.payloads[0].isMapped() {
					t.Fatalf("segment %d: a probe did not map its payload tier back in", seg.ID)
				}
			}
			checkTierQuiesced(t, tiered)
		})
	}
}

// TestTieredDemotePromote drives the full residency cycle: mapped → cold
// via DemoteSegments, then cold → mapped on the next query, with results
// identical before and after.
func TestTieredDemotePromote(t *testing.T) {
	const dim, rows = 8, 512
	cfg := tierTestConfig(t)
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
	before, err := hitsOf(c, Request{Vector: q, SearchOptions: SearchOptions{K: 5}})
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

	after, err := hitsOf(c, Request{Vector: q, SearchOptions: SearchOptions{K: 5}})
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
	cfg := tierTestConfig(t)
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
	res, err := hitsOf(c, Request{Vector: ents[1000].Vectors[0], SearchOptions: SearchOptions{K: 1}})
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
	cfg := tierTestConfig(t)
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
	want, err := hitsOf(c, Request{Vector: q, SearchOptions: SearchOptions{K: 7}})
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
	got, err := hitsOf(restored, Request{Vector: q, SearchOptions: SearchOptions{K: 7}})
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
	cfg := tierTestConfig(t)
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
	want, err := hitsOf(c, Request{Vector: q, SearchOptions: opts})
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
		got, err := hitsOf(c, Request{Vector: q, SearchOptions: opts})
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

// TestTieredRebuildToBloblessIndex: rebuilding a field to an index type
// with no blob (FLAT) deletes the replaced IVF's persisted blob, so a
// cluster reader cannot load the stale index, and frees its payload tier
// once no snapshot holds the IVF version, leaving each segment its one
// data tier.
func TestTieredRebuildToBloblessIndex(t *testing.T) {
	const dim, rows = 8, 256
	store := objstore.NewMemory()
	c, err := NewCollection("t", testSchema(dim), store, tierTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(rows, dim, 23)
	for i := 0; i < rows; i += 64 {
		if err := c.Insert(ents[i : i+64]); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	segs := c.Stats().Segments
	blobs := func() int {
		keys, err := store.List("col/t/seg/")
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, k := range keys {
			if strings.Contains(k, "/idx/") {
				n++
			}
		}
		return n
	}
	if err := c.BuildIndex("v", "IVF_FLAT", map[string]string{"nlist": "4"}); err != nil {
		t.Fatal(err)
	}
	if n, tiers := blobs(), c.TierStats().Tiered; n != segs || tiers != 2*segs {
		t.Fatalf("after IVF_FLAT: %d blobs, %d tiers for %d segments; want %d and %d", n, tiers, segs, segs, 2*segs)
	}
	if err := c.BuildIndex("v", "FLAT", nil); err != nil {
		t.Fatal(err)
	}
	if n := blobs(); n != 0 {
		t.Fatalf("after FLAT: %d stale index blobs left", n)
	}
	if tiers := c.TierStats().Tiered; tiers != segs {
		t.Fatalf("after FLAT: %d tiers for %d segments; the IVF payload tiers were not freed", tiers, segs)
	}
	q := ents[5].Vectors[0]
	got, err := hitsOf(c, Request{Vector: q, SearchOptions: SearchOptions{K: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != ents[5].ID {
		t.Fatalf("FLAT search after the rebuild: %v, want row %d", got, ents[5].ID)
	}
}

// TestTrackerFreesPayloadTierOnce: a payload tier held only by a version
// that an in-flight snapshot pins survives until that snapshot is
// released, and is then freed exactly once. A tier the newer version still
// serves lives until the segment leaves every snapshot.
func TestTrackerFreesPayloadTierOnce(t *testing.T) {
	freed := map[*segTier]int{}
	tr := newSnapTracker(func(*Segment) {}, func(pt *segTier) { freed[pt]++ })
	replaced, kept := &segTier{}, &segTier{}
	v1 := newSegment(1)
	v1.Vectors = make([]*colstore.VectorColumn, 2)
	v1.payloads = []*segTier{replaced, kept}
	v2 := v1.withIndex(0, nil, nil) // field 0 rebuilt to FLAT
	tr.install(&Snapshot{ID: 1, Segments: []*Segment{v1}})
	inflight := tr.acquire()
	tr.install(&Snapshot{ID: 2, Segments: []*Segment{v2}}) // the rebuild's install
	later := tr.acquire()
	if freed[replaced] != 0 {
		t.Fatal("replaced payload tier freed while a query of the pinned snapshot runs")
	}
	tr.release(inflight)
	if freed[replaced] != 1 || freed[kept] != 0 {
		t.Fatalf("after the pinned snapshot went: replaced freed %d times (want 1), kept %d (want 0)", freed[replaced], freed[kept])
	}
	tr.install(&Snapshot{ID: 3}) // the segment merged away
	if freed[kept] != 0 {
		t.Fatal("payload tier freed while a query of a snapshot serving it runs")
	}
	tr.release(later)
	if freed[replaced] != 1 || freed[kept] != 1 {
		t.Fatalf("after every snapshot went: replaced freed %d times, kept %d, want 1 each", freed[replaced], freed[kept])
	}
}

// TestTieredGC: merged-away segments release their storage — their one
// store object each is deleted and their mappings close.
func TestTieredGC(t *testing.T) {
	const dim = 8
	store := objstore.NewMemory()
	cfg := tierTestConfig(t)
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
// afterwards out-of-core by default, and no block-cache series exist: the
// mapped bytes are read in place.
func TestDBTierDefaults(t *testing.T) {
	const dim = 8
	db := NewDB(nil)
	defer db.Close()
	db.EnableTiering(TierDefaults{Dir: t.TempDir()})

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
		res, err := hitsOf(c, Request{Vector: ents[9].Vectors[0], SearchOptions: SearchOptions{K: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != ents[9].ID || res[0].Distance != 0 {
			t.Fatalf("collection %q self-search through the mapping = %v", name, res)
		}
	}

	var buf bytes.Buffer
	if err := db.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "vectordb_blockcache_") {
		t.Fatal("a block-cache series is still exported")
	}
}

// TestTieredFlatKeepsNoHeapCopy: a tiered FLAT collection's vectors live
// only in the mapped segment files — no FLAT build copies a mapping onto
// the heap, so no segment carries an index or a resident column — and its
// answers match the all-RAM collection's.
func TestTieredFlatKeepsNoHeapCopy(t *testing.T) {
	const dim, rows = 16, 512
	ents := mkEntities(rows, dim, 23)
	mkCfg := func(tiered bool) Config {
		cfg := testConfig()
		if tiered {
			cfg = tierTestConfig(t)
		}
		cfg.IndexType = "FLAT"
		cfg.IndexRows = 64 // every sealed segment is index-size
		return cfg
	}
	plain, err := NewCollection("plain", testSchema(dim), objstore.NewMemory(), mkCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	tiered, err := NewCollection("tiered", testSchema(dim), objstore.NewMemory(), mkCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	fillBoth(t, plain, tiered, ents)
	tiered.WaitIndexed()

	sn := tiered.AcquireSnapshot()
	for _, seg := range sn.Segments {
		if seg.tier == nil {
			t.Fatalf("segment %d is not tiered", seg.ID)
		}
		if idx := seg.Index(0); idx != nil {
			t.Fatalf("segment %d holds a %s index of %d bytes", seg.ID, idx.Name(), idx.MemoryBytes())
		}
		if n := len(seg.Vectors[0].Data); n != 0 {
			t.Fatalf("segment %d keeps %d resident floats", seg.ID, n)
		}
	}
	tiered.ReleaseSnapshot(sn)
	for qi := 0; qi < 10; qi++ {
		q := ents[qi*37].Vectors[0]
		want, err := hitsOf(plain, Request{Vector: q, SearchOptions: SearchOptions{K: 10}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := hitsOf(tiered, Request{Vector: q, SearchOptions: SearchOptions{K: 10}})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("query %d: tiered %v, all-RAM %v", qi, got, want)
		}
	}
}

// TestTieredUnreadableSegmentFailsQuery: a segment whose local files and
// store objects are all gone cannot be promoted, and a query — one vector,
// a filtered one, a batch, a fused and a weighted two-field one, and a
// filtered one the planner runs as a prefilter — answers that error
// instead of silently leaving the segment's rows out, whether the segment
// is scanned or probed through an externalized IVF_FLAT payload. Each
// failed promotion counts in vectordb_tier_promote_errors_total.
func TestTieredUnreadableSegmentFailsQuery(t *testing.T) {
	const dim, rows = 8, 256
	schema := testSchema(dim)
	schema.VectorFields = append(schema.VectorFields, VectorField{Name: "w", Dim: dim, Metric: vec.L2})
	for _, indexType := range []string{"FLAT", "IVF_FLAT"} {
		reg := obs.NewRegistry()
		cfg := tierTestConfig(t)
		cfg.Obs = reg
		cfg.IndexRows, cfg.IndexType, cfg.IndexParams = 64, indexType, map[string]string{"nlist": "4"}
		cfg.Planner = plan.New(plan.Config{Obs: reg, Profile: fixedProfile(nil)})
		store := objstore.NewMemory()
		c, err := NewCollection("gone", schema, store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ents := mkEntities(rows, dim, 9)
		for i, e := range mkEntities(rows, dim, 10) {
			ents[i].Vectors = append(ents[i].Vectors, e.Vectors[0])
		}
		if err := c.Insert(ents); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		sn := c.AcquireSnapshot()
		external := 0
		for _, seg := range sn.Segments {
			if iv, ok := unwrapIndex(seg.Index(0)).(*ivf.IVF); ok && iv.Externalized() {
				external++
			}
		}
		c.ReleaseSnapshot(sn)
		if (external > 0) != (indexType == "IVF_FLAT") {
			t.Fatalf("%s: %d segments probe an externalized payload", indexType, external)
		}
		if c.DemoteSegments() == 0 {
			t.Fatal("nothing demoted")
		}
		keys, err := store.List("")
		if err != nil || len(keys) == 0 {
			t.Fatalf("store holds %v (%v), want the segment objects", keys, err)
		}
		for _, k := range keys {
			if err := store.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
		promoteErrs := reg.Counter("vectordb_tier_promote_errors_total", "collection", "gone")
		q, price := ents[5].Vectors[0], ents[5].Attrs[0]
		prefiltered := obs.NewQueryRecord("filtered")
		for name, req := range map[string]Request{
			"vector":   {Vector: q, SearchOptions: SearchOptions{K: 5}},
			"filtered": {Vector: q, Pred: colstore.RangePred{Attr: 0, Lo: 0, Hi: 1 << 40}, SearchOptions: SearchOptions{K: 5}},
			"batch":    {Batch: [][]float32{q, ents[9].Vectors[0]}, SearchOptions: SearchOptions{K: 5}},
			"fused":    {Fields: ents[5].Vectors, SearchOptions: SearchOptions{K: 5}},
			"weighted": {Fields: ents[5].Vectors, Weights: []float32{0.75, 0.25}, SearchOptions: SearchOptions{K: 5}},
			"prefiltered": {Vector: q, Pred: colstore.RangePred{Attr: 0, Lo: price, Hi: price},
				SearchOptions: SearchOptions{K: 5, Trace: prefiltered}},
		} {
			before := promoteErrs.Value()
			if _, err := c.Query(context.Background(), req); err == nil {
				t.Fatalf("%s %s: a query over an unreadable segment answered without an error", indexType, name)
			}
			if promoteErrs.Value() <= before {
				t.Fatalf("%s %s: vectordb_tier_promote_errors_total did not count the failed promotion", indexType, name)
			}
		}
		if choice, _ := prefiltered.Summary().Attr("plan"); choice != string(plan.StrategyPrefilter) {
			t.Fatalf("%s prefiltered: plan %q, want %s", indexType, choice, plan.StrategyPrefilter)
		}
	}
}

// TestTieredDemoteDropsCodes: a tiered segment's code copy is heap memory
// outside TierMappedBytes, so a demote releases it with the mapping; the
// segment's next second scan rebuilds it, and the answers do not move.
func TestTieredDemoteDropsCodes(t *testing.T) {
	const dim, rows = 32, codedBatchFloats / 32 // one segment at the code floor
	cfg := tierTestConfig(t)
	cfg.FlushRows = rows
	c, err := NewCollection("codes", testSchema(dim), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(rows, dim, 11)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	q := Request{Vector: ents[7].Vectors[0], SearchOptions: SearchOptions{K: 5}}
	coded := func() int {
		sn := c.AcquireSnapshot()
		defer c.ReleaseSnapshot(sn)
		n := 0
		for _, seg := range sn.Segments {
			if seg.tier == nil {
				t.Fatalf("segment %d is not tiered", seg.ID)
			}
			if seg.fieldCodes(0).codes.Load() != nil {
				n++
			}
		}
		return n
	}
	want, err := hitsOf(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if n := coded(); n != 0 {
		t.Fatalf("%d segments hold codes after one scan", n)
	}
	for round := 0; round < 2; round++ {
		got, err := hitsOf(c, q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: coded scan %v, float scan %v", round, got, want)
		}
		if n := coded(); n == 0 {
			t.Fatalf("round %d: no segment holds codes after its second scan", round)
		}
		if c.DemoteSegments() == 0 {
			t.Fatalf("round %d: nothing demoted", round)
		}
		if n := coded(); n != 0 {
			t.Fatalf("round %d: %d demoted segments still hold codes", round, n)
		}
		if _, err := hitsOf(c, q); err != nil { // the first scan after the demote
			t.Fatal(err)
		}
	}
}
