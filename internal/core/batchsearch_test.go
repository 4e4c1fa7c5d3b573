package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vectordb/internal/obs"
	"vectordb/internal/topk"
)

// queuedSearch is one SearchCtx that formBatch queued, and its outcome.
type queuedSearch struct {
	tr       *obs.QueryRecord
	hits     []topk.Result
	err      error
	panicked any
}

// formBatch runs one formed batch on a one-segment collection over a
// one-worker pool. A first query takes the run slot and parks inside the
// segment's index; one SearchCtx per ctx then queues behind it, oldest
// first; then the first query finishes, and its freed slot goes to the
// oldest queued query, which leads the rest as its peers. hook runs on
// every later index search. formBatch returns once every query has.
func formBatch(t *testing.T, reg *obs.Registry, hook func(), ctxs ...context.Context) (*Collection, []Entity, []*queuedSearch) {
	t.Helper()
	c, ents := oneSegmentCollection(t, reg, 1)
	entered, gate := make(chan struct{}), make(chan struct{})
	var searches atomic.Int32
	parkFirstSegment(t, c, func() {
		if searches.Add(1) == 1 {
			close(entered)
			<-gate
			return
		}
		hook()
	})
	first := make(chan error, 1)
	go func() {
		_, err := c.SearchCtx(context.Background(), ents[0].Vectors[0], SearchOptions{K: 5})
		first <- err
	}()
	<-entered
	qs := make([]*queuedSearch, len(ctxs))
	var wg sync.WaitGroup
	for i, ctx := range ctxs {
		q := &queuedSearch{tr: obs.NewQueryRecord("vector")}
		qs[i] = q
		wg.Add(1)
		go func(ctx context.Context, vec []float32) {
			defer wg.Done()
			defer func() { q.panicked = recover() }()
			q.hits, q.err = c.SearchCtx(ctx, vec, SearchOptions{K: 5, Trace: q.tr})
		}(ctx, ents[10+i].Vectors[0])
		for deadline := time.Now().Add(5 * time.Second); c.pool.Waiting() < i+1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("query %d never queued", i)
			}
		}
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return c, ents, qs
}

// TestJoinedContextWaitsForEveryMember: a batch's context is cancelled at
// once when every member was dead before it formed, stays live while any
// member is, and is cancelled when the last live member dies.
func TestJoinedContextWaitsForEveryMember(t *testing.T) {
	dead, kill := context.WithCancel(context.Background())
	kill()
	ctx, stop := joinedContext([]*batchItem{newBatchItem(dead, nil), newBatchItem(dead, nil)})
	if ctx.Err() == nil {
		t.Error("an all-dead batch's context is live")
	}
	stop()

	live, cancel := context.WithCancel(context.Background())
	ctx, stop = joinedContext([]*batchItem{newBatchItem(dead, nil), newBatchItem(live, nil)})
	defer stop()
	if ctx.Err() != nil {
		t.Fatal("the batch's context died with a member still live")
	}
	cancel()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the batch's context outlived its last member")
	}
}

// TestCancelledParkedMemberDoesNotAbortPeers: a batch holder whose context
// dies while its batch runs gets its own error, and its peer still gets
// the per-query path's result.
func TestCancelledParkedMemberDoesNotAbortPeers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	c, ents, qs := formBatch(t, obs.NewRegistry(), func() { once.Do(cancel) }, ctx, context.Background())
	if !errors.Is(qs[0].err, context.Canceled) {
		t.Errorf("cancelled holder: err = %v, want context.Canceled", qs[0].err)
	}
	if qs[1].err != nil {
		t.Fatalf("peer: %v", qs[1].err)
	}
	want, err := c.SearchCtx(context.Background(), ents[11].Vectors[0], SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "peer of a cancelled holder", qs[1].hits, want)
}

// TestRunnerMissingMemberIsBackstopped: a batch whose run panics on its
// holder's goroutine still answers every peer — with errMissedMember, not a
// hung wait (the peers' deadline only bounds a failure) — and hands its run
// slot on, so the next query runs.
func TestRunnerMissingMemberIsBackstopped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var once sync.Once
	c, ents, qs := formBatch(t, obs.NewRegistry(), func() { once.Do(func() { panic("index failed") }) }, ctx, ctx, ctx)
	if qs[0].panicked == nil {
		t.Fatalf("the holder's panic was swallowed (err %v)", qs[0].err)
	}
	for i, q := range qs[1:] {
		if !errors.Is(q.err, errMissedMember) {
			t.Errorf("peer %d: err = %v, want errMissedMember", i+1, q.err)
		}
	}
	if _, err := c.SearchCtx(context.Background(), ents[0].Vectors[0], SearchOptions{K: 5}); err != nil {
		t.Fatalf("search after a panicking batch: %v", err)
	}
}

// TestOnlyParkedWaitIsTraced: a peer traces its wait for the holder's
// answer as the batch_form span and runs nothing of its own; the batch's
// holder, like a query that runs alone, carries no batch_form span. Both
// members are stamped with the batch's size.
func TestOnlyParkedWaitIsTraced(t *testing.T) {
	bg := context.Background()
	c, ents, qs := formBatch(t, obs.NewRegistry(), func() {}, bg, bg)
	holder, peer := qs[0].tr.Stages(), qs[1].tr.Stages()
	if slices.Contains(holder, "batch_form") || !slices.Contains(holder, "plan") {
		t.Errorf("holder traced %v, want a planned run and no batch_form", holder)
	}
	if !slices.Equal(peer, []string{"sched_wait", "batch_form"}) {
		t.Errorf("peer traced %v, want [sched_wait batch_form]", peer)
	}
	for i, q := range qs {
		if occ, _ := q.tr.Attr("batch_occupancy"); occ != "2" {
			t.Errorf("member %d: batch_occupancy %q, want 2", i, occ)
		}
	}
	lone := obs.NewQueryRecord("vector")
	if _, err := c.SearchCtx(bg, ents[0].Vectors[0], SearchOptions{K: 5, Trace: lone}); err != nil {
		t.Fatal(err)
	}
	if stages := lone.Stages(); slices.Contains(stages, "batch_form") {
		t.Errorf("lone query traced %v, want no batch_form", stages)
	}
}

// TestSeriesCountPathsAndTriggers: each batchable query lands on exactly one
// path — passthrough when granted a slot alone, batched when it runs in a
// formed batch — each formed batch on the slot trigger and its size, and
// wait_seconds observes only the members of formed batches.
func TestSeriesCountPathsAndTriggers(t *testing.T) {
	reg := obs.NewRegistry()
	bg := context.Background()
	formBatch(t, reg, func() {}, bg, bg, bg)
	for _, c := range []struct {
		name, label, value string
		want               int64
	}{
		{"vectordb_batchform_queries_total", "path", "passthrough", 1}, // the first query, alone on a free slot
		{"vectordb_batchform_queries_total", "path", "batched", 3},
		{"vectordb_batchform_batches_total", "trigger", "slot", 1},
		{"vectordb_batchform_occupancy_total", "size", "3", 1},
	} {
		if got := reg.Counter(c.name, "collection", "one", c.label, c.value).Value(); got != c.want {
			t.Errorf("%s{%s=%q} = %d, want %d", c.name, c.label, c.value, got, c.want)
		}
	}
	if n := reg.Histogram("vectordb_batchform_wait_seconds", nil, "collection", "one").Count(); n != 3 {
		t.Errorf("wait_seconds observed %d waits, want 3 (the batch's members)", n)
	}
}

// TestFlatBatchRunsOnTileKernels: a FLAT collection's index-size segments
// carry no index, so a batch over them runs the m-query tile kernels —
// no segment is served by an index — and answers what one query at a
// time does.
func TestFlatBatchRunsOnTileKernels(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	cfg.IndexType = "FLAT"
	cfg.IndexRows = 64 // every sealed segment is index-size
	c, err := NewCollection("flat", testSchema(16), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ents := mkEntities(256, 16, 5)
	if err := c.Insert(ents); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.WaitIndexed()
	queries := [][]float32{ents[3].Vectors[0], ents[70].Vectors[0], ents[200].Vectors[0]}
	got, err := batchOf(context.Background(), c, queries, SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	indexed := reg.Counter("vectordb_query_segments_total", "collection", "flat", "path", "index")
	scanned := reg.Counter("vectordb_query_segments_total", "collection", "flat", "path", "scan")
	if indexed.Value() != 0 || scanned.Value() == 0 {
		t.Fatalf("batch served %d segments by an index and scanned %d; want 0 and every segment", indexed.Value(), scanned.Value())
	}
	for qi, q := range queries {
		want, err := hitsOf(c, Request{Vector: q, SearchOptions: SearchOptions{K: 5}})
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if got[qi][r].ID != want[r].ID {
				t.Fatalf("query %d rank %d: batch %v, single %v", qi, r, got[qi], want)
			}
		}
	}
}
