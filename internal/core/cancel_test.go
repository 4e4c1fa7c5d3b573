package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"vectordb/internal/exec"
	"vectordb/internal/index"
	"vectordb/internal/objstore"
	"vectordb/internal/topk"
)

// multiSegCollection builds a collection with several sealed segments so a
// search has real fan-out to cancel.
func multiSegCollection(t *testing.T, segs, rowsPerSeg, dim int) *Collection {
	t.Helper()
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	id := int64(0)
	for s := 0; s < segs; s++ {
		ents := mkEntities(rowsPerSeg, dim, int64(s+1))
		for i := range ents {
			id++
			ents[i].ID = id
		}
		if err := c.Insert(ents); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// waitGoroutines polls until the goroutine count settles at or below
// base+slack, failing the test if it never does.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	const slack = 2
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+slack {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d at start", n, base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSearchCtxPreCancelled: a context dead on arrival is refused before any
// work happens, with the context's own error.
func TestSearchCtxPreCancelled(t *testing.T) {
	c := multiSegCollection(t, 2, 64, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.SearchCtx(ctx, mkEntities(1, 8, 99)[0].Vectors[0], SearchOptions{K: 5})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("got %d results alongside cancellation", len(res))
	}
	if n := c.Stats().LiveSnapshots; n != 1 {
		t.Fatalf("%d live snapshots after cancelled search, want 1", n)
	}
}

// parkingIndex is a test index: Search calls hook, then answers from the
// wrapped index. Installed on a segment it parks a query mid-sweep.
type parkingIndex struct {
	index.Index
	hook func()
}

func (p parkingIndex) Search(q []float32, sp index.SearchParams) []topk.Result {
	p.hook()
	return p.Index.Search(q, sp)
}

// parkFirstSegment indexes the collection's first segment and wraps the
// index so every search of that segment calls hook first.
func parkFirstSegment(t *testing.T, c *Collection, hook func()) {
	t.Helper()
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	seg := sn.Segments[0]
	if err := seg.BuildIndex(c.Schema(), 0, "FLAT", nil); err != nil {
		t.Fatal(err)
	}
	seg.SetIndex(0, parkingIndex{Index: seg.Index(0), hook: hook})
}

// TestSearchCtxCancelMidFlight cancels a query while its segment sweep is
// running (one segment's index blocks until the cancel has been issued) and
// verifies the three leak-free properties: the query returns
// context.Canceled, the snapshot reference is released, and no goroutine
// sticks around.
func TestSearchCtxCancelMidFlight(t *testing.T) {
	exec.Default().Workers() // warm the process pool before the baseline
	c := multiSegCollection(t, 8, 128, 8)
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	parkFirstSegment(t, c, func() {
		once.Do(func() { // the first search only; later ones pass straight through
			close(started)
			<-release
		})
	})
	done := make(chan error, 1)
	go func() {
		_, err := c.SearchCtx(ctx, mkEntities(1, 8, 42)[0].Vectors[0], SearchOptions{K: 5})
		done <- err
	}()
	<-started
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	if n := c.Stats().LiveSnapshots; n != 1 {
		t.Fatalf("%d live snapshots after cancelled search, want 1", n)
	}
	waitGoroutines(t, base)

	// The collection must remain fully usable after the cancellation.
	res, err := c.Search(mkEntities(1, 8, 42)[0].Vectors[0], SearchOptions{K: 5})
	if err != nil || len(res) != 5 {
		t.Fatalf("post-cancel Search = %d results, %v", len(res), err)
	}
}

// TestSearchCtxDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestSearchCtxDeadline(t *testing.T) {
	c := multiSegCollection(t, 2, 64, 8)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure expiry
	_, err := c.SearchCtx(ctx, mkEntities(1, 8, 7)[0].Vectors[0], SearchOptions{K: 5})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestAdmissionRejects drives the collection through a pool with one
// admission slot and a one-deep queue: with a query parked in-flight and a
// second one waiting, a third must fast-fail with ErrRejected rather than
// queue without bound.
func TestAdmissionRejects(t *testing.T) {
	pool := exec.NewPool(exec.Config{Workers: 1, MaxInflight: 1, AdmitQueue: 1})
	defer pool.Close()
	cfg := testConfig()
	cfg.Exec = pool
	c, err := NewCollection("t", testSchema(8), objstore.NewMemory(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Insert(mkEntities(64, 8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	q := mkEntities(1, 8, 9)[0].Vectors[0]

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	parkFirstSegment(t, c, func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	})
	first := make(chan error, 1)
	go func() {
		_, err := c.SearchCtx(context.Background(), q, SearchOptions{K: 5})
		first <- err
	}()
	<-started // query 1 holds the admission slot and is scanning

	second := make(chan error, 1)
	go func() {
		_, err := c.SearchCtx(context.Background(), q, SearchOptions{K: 5})
		second <- err
	}()
	// Wait until query 2 is parked in Admit.
	for deadline := time.Now().Add(2 * time.Second); pool.Waiting() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second query never blocked in admission")
		}
		time.Sleep(time.Millisecond)
	}

	// Query 3: slot taken, queue full — fast-fail.
	if _, err := c.SearchCtx(context.Background(), q, SearchOptions{K: 5}); !errors.Is(err, exec.ErrRejected) {
		t.Fatalf("err = %v, want exec.ErrRejected", err)
	}
	if pool.Rejected() == 0 {
		t.Fatal("rejection not counted")
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first query failed: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second query failed: %v", err)
	}
}
