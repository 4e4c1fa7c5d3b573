package core

import (
	"context"
	"fmt"
	"testing"

	"vectordb/internal/objstore"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// TestTombstonedScanStaysOnBatchKernels: one live tombstone must not change
// how a snapshot is scanned. The deleted row reaches the unindexed L2 scan as
// a clear visibility bit beneath the blocked batch kernels — it used to ride
// as a per-row callback, which sent the whole scan down the pairwise path —
// and the hits are brute force minus that row, single query and batch alike.
// The brute force scores each row alone through the batch entry point: on
// every kernel tier a row's distance is a pure function of (query, row), so
// the hits must match bit for bit. Dim 8 is shorter than one 16-float
// chunk, dim 32 spans two.
func TestTombstonedScanStaysOnBatchKernels(t *testing.T) {
	for _, dim := range []int{8, 32} {
		t.Run(fmt.Sprintf("dim=%d", dim), func(t *testing.T) { tombstonedScanStaysOnBatchKernels(t, dim) })
	}
}

func tombstonedScanStaysOnBatchKernels(t *testing.T, dim int) {
	const rows, k = 900, 10
	cfg := testConfig()
	cfg.FlushRows = 1 << 12 // one segment, nothing to merge the tombstone away
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(rows, dim, 5)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := ents[17]
	if err := c.Delete([]int64{victim.ID}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Segments != 1 || st.Tombstones != 1 || st.LiveRows != rows-1 {
		t.Fatalf("fixture: %+v, want one segment hiding one row", st)
	}
	q := victim.Vectors[0] // the deleted row would be the nearest hit
	oracle := topk.New(k)
	d := make([]float32, 1)
	for _, e := range ents {
		if e.ID != victim.ID {
			vec.L2SquaredBatch(q, e.Vectors[0], dim, d)
			oracle.Push(e.ID, d[0])
		}
	}
	want := oracle.Results()

	prev := vec.DispatchCounting()
	vec.SetDispatchCounting(true)
	defer vec.SetDispatchCounting(prev)
	ctx := context.Background()
	for name, search := range map[string]func() ([]topk.Result, error){
		"SearchCtx": func() ([]topk.Result, error) { return c.SearchCtx(ctx, q, SearchOptions{K: k}) },
		"SearchBatchCtx": func() ([]topk.Result, error) {
			res, err := batchOf(ctx, c, [][]float32{q}, SearchOptions{K: k})
			if err != nil {
				return nil, err
			}
			return res[0], nil
		},
	} {
		vec.ResetDispatchCounts()
		got, err := search()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if vec.BatchDispatchTotal() == 0 {
			t.Errorf("%s: a tombstoned snapshot made no batch-kernel dispatches", name)
		}
		sameHits(t, name, want, got)
	}
}

// checkVisibility holds a snapshot's resolved visibility to the reference
// it was resolved from: for every (segment, row) the bit is clear exactly
// when a tombstone covers the row (its sequence is at least the segment's
// ID), a segment hiding nothing keeps the nil
// (zero-cost) bitset, every tombstone kept hides some row, and LiveRows is
// the visible count.
func checkVisibility(t *testing.T, sn *Snapshot) {
	t.Helper()
	live := 0
	hiding := map[int64]bool{}
	for i, seg := range sn.Segments {
		hidden := 0
		for r, id := range seg.IDs {
			seq, ok := sn.Deleted[id]
			covered := ok && seg.ID <= seq
			if visible := sn.visible[i] == nil || sn.visible[i].Test(r); visible == covered {
				t.Fatalf("snapshot %d segment %d row %d (id %d): visible=%v, covered=%v", sn.ID, seg.ID, r, id, visible, covered)
			}
			if covered {
				hidden++
				hiding[id] = true
			}
		}
		if hidden == 0 && sn.visible[i] != nil {
			t.Fatalf("snapshot %d segment %d hides nothing but carries a visibility bitset", sn.ID, seg.ID)
		}
		live += seg.Rows() - hidden
	}
	if got := sn.LiveRows(); got != live {
		t.Fatalf("snapshot %d: LiveRows = %d, %d rows visible", sn.ID, got, live)
	}
	for id := range sn.Deleted {
		if !hiding[id] {
			t.Fatalf("snapshot %d keeps tombstone %d, which hides no row", sn.ID, id)
		}
	}
}
