package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vectordb/internal/index"
	"vectordb/internal/index/flat"
	"vectordb/internal/objstore"
	"vectordb/internal/vec"
)

// parkedHook, when set, runs at the start of every build of the test index
// type "PARKED", an exhaustive index once built.
var (
	parkedHook     atomic.Pointer[func()]
	registerParked sync.Once
)

type parkedBuilder struct{ index.Builder }

func (b parkedBuilder) Build(data []float32, ids []int64) (index.Index, error) {
	if h := parkedHook.Load(); h != nil {
		(*h)()
	}
	return b.Builder.Build(data, ids)
}

// TestManualBuildSurvivesAsyncBuild: a manual BuildIndex that lands while
// an automatic build of the configured type is running keeps its index.
// The automatic build finishes later, finds the field indexed, and is
// dropped.
func TestManualBuildSurvivesAsyncBuild(t *testing.T) {
	registerParked.Do(func() {
		index.Register("PARKED", func(m vec.Metric, dim int, _ map[string]string) (index.Builder, error) {
			return parkedBuilder{flat.NewBuilder(m, dim)}, nil
		})
	})
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hook := func() {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	parkedHook.Store(&hook)
	defer parkedHook.Store(nil)

	const n, dim = 512, 8
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), Config{
		FlushRows: n, FlushInterval: -1, MergeFactor: 1 << 20,
		IndexRows: n, IndexType: "PARKED",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Insert(mkEntities(n, dim, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-started // the automatic build is parked inside Build
	if err := c.BuildIndex("v", "IVF_FLAT", map[string]string{"nlist": "4"}); err != nil {
		t.Fatal(err)
	}
	close(release)
	c.WaitIndexed()
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	if len(sn.Segments) != 1 {
		t.Fatalf("fixture: %d segments, want 1", len(sn.Segments))
	}
	name := "no index"
	if idx := sn.Segments[0].Index(0); idx != nil {
		name = idx.Name()
	}
	if name != "IVF_FLAT" {
		t.Fatalf("segment serves %s after the automatic build finished, want the manual IVF_FLAT", name)
	}
}

// TestWaitIndexedLosesNoWakeUp: WaitIndexed returns once the last
// scheduled build finishes, however the finish races the wait, and every
// waiter of a draining async builder wakes to find each segment indexed.
func TestWaitIndexedLosesNoWakeUp(t *testing.T) {
	const segs, rows, dim = 6, 64, 8
	c, err := NewCollection("t", testSchema(dim), objstore.NewMemory(), Config{
		FlushRows: rows, FlushInterval: -1, MergeFactor: 1 << 20,
		IndexRows: rows, IndexParams: map[string]string{"nlist": "4"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	watchdog := func(what string, wait func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); wait() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: WaitIndexed never returned", what)
		}
	}
	watchdog("finish racing the wait", func() {
		for i := 0; i < 2000; i++ {
			c.indexPending(1)
			go c.indexPending(-1)
			c.WaitIndexed()
		}
	})

	for s := 0; s < segs; s++ {
		if err := c.Insert(mkEntities(rows, dim, int64(s))); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var waiters sync.WaitGroup
	for w := 0; w < 4; w++ {
		waiters.Add(1)
		go func() { defer waiters.Done(); c.WaitIndexed() }()
	}
	watchdog("waiters of the async builder", waiters.Wait)
	sn := c.AcquireSnapshot()
	defer c.ReleaseSnapshot(sn)
	if len(sn.Segments) != segs {
		t.Fatalf("fixture: %d segments, want %d", len(sn.Segments), segs)
	}
	for _, seg := range sn.Segments {
		if seg.Index(0) == nil {
			t.Fatalf("segment %d has no index after WaitIndexed", seg.ID)
		}
	}
}
