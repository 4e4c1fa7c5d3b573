package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/ivf"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// fullCompileSearch is the reference a probe-resolved filtered search is
// held to: pred compiled at every position of every segment of sn (the
// visibility ANDed in), then the same index search with that bitset.
func fullCompileSearch(t *testing.T, schema *Schema, sn *Snapshot, q []float32, pred colstore.Pred, p index.SearchParams) []topk.Result {
	t.Helper()
	h := topk.New(p.K)
	for i, seg := range sn.Segments {
		b, err := seg.CompileFilter(pred, sn.visible[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		p.Bits = b
		seg.SearchInto(h, schema, 0, q, p)
		bitset.Put(b)
	}
	return h.Results()
}

// TestPushdownProbeResolvedEqualsFullCompile: Query's pushdown resolves a
// predicate only at the probed buckets' positions of each IVF segment, and
// must return, hit for hit, what the same probe returns under the predicate
// compiled at every position — IVF_FLAT, IVF_SQ8 and IVF_PQ; range widths
// 0, 1, 10, 50 and 100 % and an And/Or/Not/In tree; with no tombstones and
// with 10 %. A range whose zone-map count exceeds the probed rows is
// compared at those positions alone and sets no other bit.
func TestPushdownProbeResolvedEqualsFullCompile(t *testing.T) {
	const n, dim, k, nprobe = 3000, 16, 10, 3
	ents := mkCatEntities(n, dim, 77) // price uniform in [0, 1000)
	r := rand.New(rand.NewSource(78))
	queries := make([][]float32, 4)
	for i := range queries {
		queries[i] = make([]float32, dim)
		for j := range queries[i] {
			queries[i][j] = float32(r.NormFloat64())
		}
	}
	preds := map[string]colstore.Pred{
		"tree": colstore.OrPred{Preds: []colstore.Pred{
			colstore.AndPred{Preds: []colstore.Pred{
				colstore.RangePred{Attr: 0, Lo: 100, Hi: 699},
				colstore.NotPred{Pred: colstore.InPred{Cat: 0, Values: []string{"globex"}}},
			}},
			colstore.InPred{Cat: 0, Values: []string{"initech"}},
		}},
	}
	for _, w := range []int64{0, 10, 100, 500, 1000} {
		lo := int64(r.Intn(int(1000-w) + 1))
		// A one-child And: a tree always pushes down, where a bare range
		// could be planned as the prefilter scan.
		preds[fmt.Sprintf("width=%d%%", w/10)] = colstore.AndPred{Preds: []colstore.Pred{colstore.RangePred{Attr: 0, Lo: lo, Hi: lo + w - 1}}}
	}
	for _, typ := range []string{"IVF_FLAT", "IVF_SQ8", "IVF_PQ"} {
		t.Run(typ, func(t *testing.T) {
			c, err := NewCollection("pr", catSchema(dim), objstore.NewMemory(),
				Config{FlushRows: n / 3, FlushInterval: -1, MergeFactor: 1 << 20, IndexRows: 1 << 20, SyncIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Insert(ents); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := c.BuildIndex("v", typ, map[string]string{"nlist": "16", "iter": "4"}); err != nil {
				t.Fatal(err)
			}
			for _, tomb := range []string{"none", "10%"} {
				if tomb == "10%" {
					var dead []int64
					for i := 0; i < n; i += 10 {
						dead = append(dead, ents[i].ID)
					}
					if err := c.Delete(dead); err != nil {
						t.Fatal(err)
					}
					if err := c.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				sn := c.AcquireSnapshot()
				if len(sn.Segments) < 3 {
					t.Fatalf("fixture: %d segments", len(sn.Segments))
				}
				for name, pred := range preds {
					for qi, q := range queries {
						label := fmt.Sprintf("%s/tombstones=%s/%s/q%d", typ, tomb, name, qi)
						tr := obs.NewQueryRecord("probe")
						got, err := hitsOf(c, Request{Vector: q, Pred: pred, SearchOptions: SearchOptions{K: k, Nprobe: nprobe, Trace: tr}})
						if err != nil {
							t.Fatal(err)
						}
						if s, _ := tr.Attr("filter_strategy"); s != "B" {
							t.Fatalf("%s: filter_strategy %q, want the pushdown", label, s)
						}
						want := fullCompileSearch(t, c.schema, sn, q, pred, index.SearchParams{K: k, Nprobe: nprobe})
						sameHits(t, label, want, got)
					}
				}
				checkWideFillStaysAtProbes(t, sn, queries[0], nprobe)
				c.ReleaseSnapshot(sn)
			}
		})
	}
}

// checkWideFillStaysAtProbes compiles ranges wider than an IVF probe's rows
// at the probed buckets' positions of every segment: each probed bit is the
// raw-value test, and no bit outside those positions is set.
func checkWideFillStaysAtProbes(t *testing.T, sn *Snapshot, q []float32, nprobe int) {
	t.Helper()
	for _, seg := range sn.Segments {
		iv, ok := unwrapIndex(seg.Index(0)).(*ivf.IVF)
		if !ok {
			t.Fatalf("segment %d: index %v, want an IVF", seg.ID, seg.Index(0))
		}
		at := iv.ProbedPositions(nil, iv.ProbeOrder(q, nprobe))
		for _, hi := range []int64{499, 999} {
			rng := colstore.RangePred{Attr: 0, Lo: 0, Hi: hi}
			if zone := seg.AttrColumn(0).CountRange(0, hi); zone <= len(at) {
				t.Fatalf("segment %d: range [0,%d] matches %d rows, not more than the %d probed", seg.ID, hi, zone, len(at))
			}
			b, err := seg.CompileFilter(rng, nil, at)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range at {
				if want := seg.RawAttrs[0][p] <= hi; b.Test(int(p)) != want {
					t.Fatalf("segment %d position %d: bit %v, raw value %d in [0,%d] %v", seg.ID, p, b.Test(int(p)), seg.RawAttrs[0][p], hi, want)
				}
			}
			if inside, all := b.CountAt(at), b.Count(); inside != all {
				t.Fatalf("segment %d range [0,%d]: %d bits set, %d of them at probed positions", seg.ID, hi, all, inside)
			}
			bitset.Put(b)
		}
	}
}

// TestPushdownPinnedSnapshotSurvivesRebuild: a filtered search of a pinned
// snapshot resolves and probes through the segment version that snapshot
// holds, whatever rebuilds install meanwhile — an IVF with fewer buckets
// (whose bucket ids the old ranking would overrun), then FLAT (a column
// scan that would read unresolved bits, and under a Not the complemented
// ones). The stale search must equal the full compile through the pinned
// version's index, hit for hit.
func TestPushdownPinnedSnapshotSurvivesRebuild(t *testing.T) {
	const n, dim, k, nprobe = 2000, 16, 10, 4
	c, err := NewCollection("once", catSchema(dim), objstore.NewMemory(),
		Config{FlushRows: n, FlushInterval: -1, MergeFactor: 1 << 20, IndexRows: 1 << 20, SyncIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(mkCatEntities(n, dim, 91)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c.BuildIndex("v", "IVF_FLAT", map[string]string{"nlist": "32", "iter": "4"}); err != nil {
		t.Fatal(err)
	}
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	seg := sn.Segments[0]
	q := mkCatEntities(1, dim, 92)[0].Vectors[0]
	pred := colstore.NotPred{Pred: colstore.RangePred{Attr: 0, Lo: 0, Hi: 799}}
	p := index.SearchParams{K: k, Nprobe: nprobe}
	b, err := seg.CompileFilter(pred, sn.visible[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	want := topk.New(k)
	p.Bits = b
	seg.SearchInto(want, c.schema, 0, q, p)
	bitset.Put(b)
	wantHits := want.Results()
	if len(wantHits) == 0 {
		t.Fatal("fixture: the full compile found no hits")
	}
	for _, rebuild := range []struct {
		typ    string
		params map[string]string
		nlist  int
	}{
		{"IVF_FLAT", map[string]string{"nlist": "4", "iter": "2"}, 4},
		{"FLAT", nil, 0},
	} {
		if err := c.BuildIndex("v", rebuild.typ, rebuild.params); err != nil {
			t.Fatal(err)
		}
		cur := c.AcquireSnapshot()
		nlist := 0
		if iv, ok := unwrapIndex(cur.Segments[0].Index(0)).(*ivf.IVF); ok {
			nlist = iv.Nlist()
		}
		c.ReleaseSnapshot(cur)
		if nlist != rebuild.nlist {
			t.Fatalf("%s rebuild: the current version has %d buckets, want %d", rebuild.typ, nlist, rebuild.nlist)
		}
		got, err := c.searchPred(context.Background(), sn, 0, q, pred, false, SearchOptions{K: k, Nprobe: nprobe})
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, "pinned snapshot after "+rebuild.typ, wantHits, got)
	}
}
