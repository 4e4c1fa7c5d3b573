package ivf

import (
	"context"
	"errors"
	"testing"

	"vectordb/internal/dataset"
	"vectordb/internal/index"
	"vectordb/internal/vec"
)

// TestSearchAllocs pins the per-query allocation budget of the IVF read
// path: with pooled heaps and pooled distance buffers, a steady-state
// FLAT-bucket search allocates only the probe list, the SQ8 fused table
// (for IVF_SQ8) and the returned results — a handful of objects, not one
// per scanned row or per probed bucket.
func TestSearchAllocs(t *testing.T) {
	d := dataset.DeepLike(4000, 51)
	q := dataset.Queries(d, 1, 52)
	p := index.SearchParams{K: 10, Nprobe: 8}
	for _, fine := range []Fine{FineFlat, FineSQ8} {
		bld := &Builder{Fine: fine, Metric: vec.L2, Dim: d.Dim, Nlist: 32, MaxIter: 4}
		idx, err := bld.Build(d.Data, nil)
		if err != nil {
			t.Fatal(err)
		}
		x := idx.(*IVF)
		x.Search(q, p) // warm the pools
		avg := testing.AllocsPerRun(50, func() {
			if len(x.Search(q, p)) == 0 {
				t.Fatal("no results")
			}
		})
		// Budget: ranked centroids + probe list + (SQ8Query tables) +
		// sorted results. Anything O(rows) would be hundreds.
		if avg > 15 {
			t.Errorf("%s: Search allocates %.1f objects/op, want <= 15", x.Name(), avg)
		}
	}
}

// TestSearchBatchAllocs: the batch scheduler's allocations must scale with
// queries and workers (heaps come from the pool, distance tiles from the
// buffer pool), never with scanned rows.
func TestSearchBatchAllocs(t *testing.T) {
	d := dataset.DeepLike(4000, 53)
	qs := dataset.Queries(d, 8, 54)
	p := index.SearchParams{K: 10, Nprobe: 8}
	bld := &Builder{Fine: FineFlat, Metric: vec.L2, Dim: d.Dim, Nlist: 32, MaxIter: 4}
	idx, err := bld.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := idx.(*IVF)
	x.SearchBatch(qs, p) // warm the pools
	avg := testing.AllocsPerRun(20, func() {
		if len(x.SearchBatch(qs, p)) != 8 {
			t.Fatal("bad batch")
		}
	})
	// 8 queries × (probe list + merge snapshot + result slice) plus
	// per-worker bookkeeping. 4000 scanned rows would dwarf this budget if
	// any per-row allocation crept back in.
	if avg > 220 {
		t.Errorf("SearchBatch allocates %.1f objects/op, want <= 220", avg)
	}
}

// TestSearchBatchCancelAllocs pins the allocation budget of the batch
// scheduler's *error* path: a batch cancelled mid-flight has already drawn
// per-(worker,query) heaps from the topk pool, and they must go back even
// though the merge phase is skipped. Before the deferred recycle was
// added, every cancelled batch leaked those heaps — two allocations each
// on the next draw — which this budget catches.
//
// The setup is made deterministic: nq identical queries with Nprobe 1
// probe exactly one bucket, so Map takes its inline single-worker path
// (no per-task closures, worker count independent of GOMAXPROCS) and the
// scan draws exactly nq heaps before the cancellation is noticed after the
// bucket completes. The cancellation is raised by the context itself, on
// its n'th Err() poll; n is swept so that the budget holds wherever the
// cancel lands — before the task, before the bucket, or after it with every
// heap drawn.
func TestSearchBatchCancelAllocs(t *testing.T) {
	const nq = 32
	d := dataset.DeepLike(4000, 57)
	q := dataset.Queries(d, 1, 58)
	qs := make([]float32, 0, nq*d.Dim)
	for i := 0; i < nq; i++ {
		qs = append(qs, q...)
	}
	bld := &Builder{Fine: FineFlat, Metric: vec.L2, Dim: d.Dim, Nlist: 32, MaxIter: 4}
	idx, err := bld.Build(d.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := idx.(*IVF)

	p := index.SearchParams{K: 10, Nprobe: 1}
	cancelled := func(polls int) (int, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		out, err := x.SearchBatchCtx(&pollCancelCtx{Context: ctx, cancel: cancel, polls: polls}, qs, p)
		return len(out), err
	}
	if n, err := cancelled(1 << 30); n != nq || err != nil { // warm the pools
		t.Fatalf("n=%d err=%v, want the full batch", n, err)
	}
	sawCancel, sawFull := false, false
	for polls := 0; !sawFull; polls++ {
		avg := testing.AllocsPerRun(20, func() {
			n, err := cancelled(polls)
			switch {
			case n == 0 && errors.Is(err, context.Canceled):
				sawCancel = true
			case n == nq && err == nil:
				sawFull = true // the cancel landed after the last poll
			default:
				t.Fatalf("polls=%d: n=%d err=%v, want a cancelled empty batch or the full one", polls, n, err)
			}
		})
		// Budget: nq probe lists, the bucket->queries inversion and context
		// machinery. Leaking the nq pooled heaps adds ~2*nq on top.
		if !sawFull && avg > 140 {
			t.Errorf("SearchBatchCtx cancelled at poll %d allocates %.1f objects/op, want <= 140", polls, avg)
		}
	}
	if !sawCancel {
		t.Fatal("no poll count cancelled the batch")
	}
}

// pollCancelCtx cancels itself on the Err() call after polls earlier ones:
// a deterministic mid-flight cancellation for single-goroutine runs.
type pollCancelCtx struct {
	context.Context
	cancel context.CancelFunc
	polls  int
}

func (c *pollCancelCtx) Err() error {
	if c.polls--; c.polls < 0 {
		c.cancel()
	}
	return c.Context.Err()
}
