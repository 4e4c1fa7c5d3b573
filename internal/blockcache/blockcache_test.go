package blockcache

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// fillWith returns a fill that sets every byte of the block to v.
func fillWith(v byte) func(dst []byte) error {
	return func(dst []byte) error {
		for i := range dst {
			dst[i] = v
		}
		return nil
	}
}

func TestGetOrLoadBasics(t *testing.T) {
	c := New(1<<20, 4)
	loads := 0
	load := func(dst []byte) error { loads++; return fillWith(7)(dst) }

	p, err := c.GetOrLoad(Key{Owner: 1, Row: 0}, 64, load)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if len(p.Bytes()) != 64 || p.Bytes()[0] != 7 {
		t.Fatalf("wrong bytes: %v", p.Bytes()[:4])
	}
	p.Release()

	p2, err := c.GetOrLoad(Key{Owner: 1, Row: 0}, 64, load)
	if err != nil {
		t.Fatalf("second get: %v", err)
	}
	p2.Release()

	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Bytes != 64 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSingleflight(t *testing.T) {
	c := New(1<<20, 1)
	var loads atomic.Int64
	gate := make(chan struct{})
	load := func(dst []byte) error {
		loads.Add(1)
		<-gate
		return fillWith(1)(dst)
	}
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.GetOrLoad(Key{Owner: 3, Row: 9 * stripeRows}, 32, load)
			errs[i] = err
			if err == nil {
				if len(p.Bytes()) != 32 {
					errs[i] = errors.New("short block")
				}
				p.Release()
			}
		}(i)
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times under contention, want 1", n)
	}
}

func TestEvictionRespectsCapacityAndPins(t *testing.T) {
	c := New(256, 1) // room for 4 × 64-byte blocks
	mk := func(i int) (Pin, error) {
		return c.GetOrLoad(Key{Owner: 1, Row: uint32(i) * stripeRows}, 64, fillWith(byte(i)))
	}
	// Hold a pin on block 0 while overflowing the budget.
	p0, err := mk(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		p, err := mk(i)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions at 10×64B over a 256B budget: %+v", st)
	}
	if st.Bytes > 256+64 { // pinned block may hold one block over
		t.Fatalf("bytes %d way over budget: %+v", st.Bytes, st)
	}
	// The pinned block must have survived every eviction pass.
	hitsBefore := c.Stats().Hits
	p0b, err := mk(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Hits != hitsBefore+1 {
		t.Fatal("pinned block was evicted")
	}
	if p0b.Bytes()[0] != 0 {
		t.Fatal("pinned block bytes changed")
	}
	p0b.Release()
	p0.Release()
}

func TestLoadFailureNotCached(t *testing.T) {
	c := New(1<<20, 2)
	boom := errors.New("injected")
	k := Key{Owner: 5, Row: 5 * stripeRows}
	if _, err := c.GetOrLoad(k, 16, func([]byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}
	st := c.Stats()
	if st.LoadFails != 1 || st.Entries != 0 {
		t.Fatalf("stats after failure: %+v", st)
	}
	// Next get retries and succeeds.
	p, err := c.GetOrLoad(k, 16, fillWith(2))
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	p.Release()
}

func TestFailureWakesWaiters(t *testing.T) {
	c := New(1<<20, 1)
	k := Key{Owner: 6, Row: stripeRows}
	started := make(chan struct{})
	gate := make(chan struct{})
	go func() {
		_, _ = c.GetOrLoad(k, 8, func([]byte) error {
			close(started)
			<-gate
			return errors.New("first load fails")
		})
	}()
	<-started
	done := make(chan error, 1)
	go func() {
		// This waiter arrives mid-flight; after the failure it must retry
		// with its own loader and succeed, not hang.
		p, err := c.GetOrLoad(k, 8, fillWith(9))
		if err == nil {
			p.Release()
		}
		done <- err
	}()
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("waiter after failed flight: %v", err)
	}
}

func TestDropReclaims(t *testing.T) {
	c := New(1<<20, 2)
	var pinned Pin
	for i := 0; i < 8; i++ {
		p, err := c.GetOrLoad(Key{Owner: 7, Row: uint32(i) * stripeRows}, 128, fillWith(1))
		if err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			pinned = p
		} else {
			p.Release()
		}
	}
	other, err := c.GetOrLoad(Key{Owner: 8, Row: 0}, 128, fillWith(2))
	if err != nil {
		t.Fatal(err)
	}
	other.Release()

	c.Drop(7)
	st := c.Stats()
	// Owner 8's block plus owner 7's still-pinned block remain accounted.
	if st.Entries != 1 || st.Bytes != 256 {
		t.Fatalf("after drop: %+v", st)
	}
	if pinned.Bytes()[0] != 1 {
		t.Fatal("pinned bytes invalidated by Drop")
	}
	pinned.Release()
	if st := c.Stats(); st.Bytes != 128 {
		t.Fatalf("pinned dead block not reclaimed on release: %+v", st)
	}
}

func TestConcurrentChurn(t *testing.T) {
	c := New(4096, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := Key{Owner: uint64(i % 3), Ext: uint32(w % 2), Row: uint32(i%17) * stripeRows}
				p, err := c.GetOrLoad(k, 96, func(dst []byte) error {
					if i%31 == 7 && w == 0 {
						return fmt.Errorf("churn fault %d", i)
					}
					return fillWith(byte(i))(dst)
				})
				if err != nil {
					continue
				}
				_ = p.Bytes()[0]
				p.Release()
				if i%61 == 0 {
					c.Drop(uint64(i % 3))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Fatalf("negative accounting after churn: %+v", st)
	}
}

func TestDropDuringLoadCachesNothing(t *testing.T) {
	c := New(1<<20, 1)
	k := Key{Owner: 9, Row: 0}
	started, gate := make(chan struct{}), make(chan struct{})
	served := make(chan Pin, 1)
	go func() {
		p, err := c.GetOrLoad(k, 64, func(dst []byte) error {
			close(started)
			<-gate
			return fillWith(3)(dst)
		})
		if err != nil {
			t.Error(err)
		}
		served <- p
	}()
	<-started
	c.Drop(9)
	close(gate)
	p := <-served
	if b := p.Bytes(); len(b) != 64 || b[0] != 3 {
		t.Fatalf("loader not served its block: %v", b)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("block of a dropped owner is reachable: %+v", st)
	}
	p.Release()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("block of a dropped owner still cached after release: %+v", st)
	}
	// Its frame was recycled: the next miss allocates nothing.
	q, err := c.GetOrLoad(Key{Owner: 10}, 64, fillWith(4))
	if err != nil {
		t.Fatal(err)
	}
	q.Release()
	if st := c.Stats(); st.FrameAllocs != 1 {
		t.Fatalf("frame of the dropped load not recycled: %+v", st)
	}
}

func TestPinnedBlockSurvivesChurn(t *testing.T) {
	c := New(4*256, 1)
	pinned, err := c.GetOrLoad(Key{Owner: 1, Row: 0}, 256, func(dst []byte) error {
		for i := range dst {
			dst[i] = byte(i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		p, err := c.GetOrLoad(Key{Owner: 2, Row: uint32(i) * stripeRows}, 256, fillWith(0xff))
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	for i, b := range pinned.Bytes() {
		if b != byte(i) {
			t.Fatalf("pinned byte %d = %#x after 1000 misses, want %#x", i, b, byte(i))
		}
	}
	pinned.Release()
	if st := c.Stats(); st.Misses != 1001 || st.FrameAllocs > 5 {
		t.Fatalf("frames not recycled across misses: %+v", st)
	}
}

func TestDroppedPinnedFrameNotReusedBeforeRelease(t *testing.T) {
	c := New(2*64, 1)
	p, err := c.GetOrLoad(Key{Owner: 1, Row: 0}, 64, fillWith(1))
	if err != nil {
		t.Fatal(err)
	}
	frame := &p.Bytes()[0]
	c.Drop(1)
	mk := func(i int) {
		q, err := c.GetOrLoad(Key{Owner: 2, Row: uint32(i) * stripeRows}, 64, func(dst []byte) error {
			if &dst[0] == frame {
				t.Fatalf("miss %d handed out the frame of a dropped, still pinned block", i)
			}
			return fillWith(2)(dst)
		})
		if err != nil {
			t.Fatal(err)
		}
		q.Release()
	}
	for i := 0; i < 100; i++ {
		mk(i)
	}
	if p.Bytes()[0] != 1 {
		t.Fatal("dropped pinned block's bytes changed before its release")
	}
	p.Release()
	reused := false
	for i := 100; i < 104 && !reused; i++ {
		q, err := c.GetOrLoad(Key{Owner: 2, Row: uint32(i) * stripeRows}, 64, func(dst []byte) error {
			reused = &dst[0] == frame
			return fillWith(2)(dst)
		})
		if err != nil {
			t.Fatal(err)
		}
		q.Release()
	}
	if !reused {
		t.Fatal("frame of a released dropped block never recycled")
	}
}

func TestFailedFillReturnsFrame(t *testing.T) {
	c := New(1<<20, 1)
	var failed *byte
	_, err := c.GetOrLoad(Key{Owner: 1}, 64, func(dst []byte) error {
		failed = &dst[0]
		return errors.New("injected")
	})
	if err == nil {
		t.Fatal("failed fill returned no error")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("failed fill cached something: %+v", st)
	}
	p, err := c.GetOrLoad(Key{Owner: 1}, 64, fillWith(5))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	if &p.Bytes()[0] != failed || p.Bytes()[63] != 5 {
		t.Fatal("failed fill's frame was not recycled into the retry")
	}
	if st := c.Stats(); st.FrameAllocs != 1 {
		t.Fatalf("retry allocated a second frame: %+v", st)
	}
}

// checkFrameBound asserts every shard's resident plus free frames stay
// within its budget plus one frame of at most maxFrame bytes. It measures
// frame capacity — what the shard really holds — by walking the resident
// entries and the free list, and checks the shard's own books agree.
func checkFrameBound(t *testing.T, c *Cache, maxFrame int64, when string) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var resident, free int64
		for _, e := range s.entries {
			resident += int64(cap(e.data))
		}
		for _, f := range s.free {
			free += int64(cap(f))
		}
		books := s.bytes == resident && s.freeBytes == free
		s.mu.Unlock()
		if !books {
			t.Fatalf("%s: shard %d books %d resident + %d free bytes, frames hold %d + %d",
				when, i, s.bytes, s.freeBytes, resident, free)
		}
		if resident+free > s.budget+maxFrame {
			t.Fatalf("%s: shard %d holds %d resident+free frame bytes, bound %d", when, i, resident+free, s.budget+maxFrame)
		}
	}
}

func TestFrameMemoryBound(t *testing.T) {
	c := New(4096, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := Key{Owner: uint64(i % 5), Ext: uint32(w % 2), Row: uint32(i%23) * stripeRows}
				p, err := c.GetOrLoad(k, 64+32*(i%4), fillWith(byte(i)))
				if err != nil {
					t.Error(err)
					return
				}
				p.Release()
				if i%97 == 0 {
					c.Drop(uint64(i % 5))
				}
			}
		}(w)
	}
	wg.Wait()
	checkFrameBound(t, c, 160, "after churn")
	for o := uint64(0); o < 5; o++ {
		c.Drop(o)
	}
	checkFrameBound(t, c, 160, "after drop")
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("drop of every owner left blocks: %+v", st)
	}
}

// TestRowCountIsPartOfKey: two blocks that start at the same row of the
// same extent but differ in row count — a 0-aligned block and a shorter
// bucket block over the same rows — are distinct entries with their own
// bytes.
func TestRowCountIsPartOfKey(t *testing.T) {
	c := New(1<<20, 2)
	long := Key{Owner: 1, Ext: 2, Row: stripeRows, Rows: stripeRows}
	short := Key{Owner: 1, Ext: 2, Row: stripeRows, Rows: 100}
	p, err := c.GetOrLoad(long, 4*stripeRows, fillWith(1))
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.GetOrLoad(short, 4*100, fillWith(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Bytes()) != 4*stripeRows || p.Bytes()[0] != 1 || len(q.Bytes()) != 4*100 || q.Bytes()[0] != 2 {
		t.Fatalf("blocks alias: long %d bytes of %d, short %d bytes of %d",
			len(p.Bytes()), p.Bytes()[0], len(q.Bytes()), q.Bytes()[0])
	}
	p.Release()
	q.Release()
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 || st.FillBytes != 4*(stripeRows+100) {
		t.Fatalf("stats %+v, want two misses, two entries, both blocks' bytes filled", st)
	}
}

// TestMissWithNoFittingFrame: when every free frame is too small for a
// block, the miss evicts, drops stale small frames and allocates one of
// the block's size without the shard ever holding more than its budget
// plus one frame; the next miss of that size recycles it.
func TestMissWithNoFittingFrame(t *testing.T) {
	const small, big = 64, 512
	c := New(1024, 1)
	for i := 0; i < 32; i++ { // fill and churn: the free list holds small frames
		p, err := c.GetOrLoad(Key{Owner: 1, Row: uint32(i) * stripeRows}, small, fillWith(1))
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
	}
	checkFrameBound(t, c, small, "small blocks")
	before := c.Stats()
	p, err := c.GetOrLoad(Key{Owner: 2}, big, fillWith(2))
	if err != nil {
		t.Fatal(err)
	}
	if b := p.Bytes(); len(b) != big || cap(b) != big || b[big-1] != 2 {
		t.Fatalf("big block: len %d cap %d, want an exact %d-byte frame", len(b), cap(b), big)
	}
	p.Release()
	checkFrameBound(t, c, big, "big miss")
	st := c.Stats()
	if st.FrameAllocs != before.FrameAllocs+1 || st.Evictions-before.Evictions < (big/small)/2 {
		t.Fatalf("big miss: %d frame allocs, %d evictions (before %+v, after %+v)",
			st.FrameAllocs-before.FrameAllocs, st.Evictions-before.Evictions, before, st)
	}
	for i := 3; i < 8; i++ { // more big misses evict and recycle big frames
		p, err := c.GetOrLoad(Key{Owner: 2, Row: uint32(i) * stripeRows}, big, fillWith(3))
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
		checkFrameBound(t, c, big, fmt.Sprintf("big miss %d", i))
	}
	if st := c.Stats(); st.FrameAllocs > before.FrameAllocs+2 {
		t.Fatalf("big frames not recycled: %d allocated over six misses", st.FrameAllocs-before.FrameAllocs)
	}
}

// TestUnequalBlocksSpreadAcrossShards: bucket-aligned blocks of unequal
// size over one owner's extent spread their bytes across the shards: no
// shard holds more than 1.25× or less than 0.75× the mean.
func TestUnequalBlocksSpreadAcrossShards(t *testing.T) {
	const rows, rowBytes, shards = 1 << 16, 64, 8
	c := New(0, shards)
	rng := rand.New(rand.NewSource(1))
	for start := 0; start < rows; {
		n := min(1+rng.Intn(3*stripeRows), rows-start) // one bucket
		for r := start; r < start+n; r += stripeRows {
			k := Key{Owner: 5, Ext: 1, Row: uint32(r), Rows: uint32(min(stripeRows, start+n-r))}
			p, err := c.GetOrLoad(k, int(k.Rows)*rowBytes, fillWith(1))
			if err != nil {
				t.Fatal(err)
			}
			p.Release()
		}
		start += n
	}
	mean := float64(rows*rowBytes) / shards
	for i := range c.shards {
		if got := float64(c.shards[i].bytes); got > 1.25*mean || got < 0.75*mean {
			t.Errorf("shard %d holds %.0f bytes, mean %.0f", i, got, mean)
		}
	}
}

// BenchmarkMissEvict measures one miss that evicts: every get names a new
// key of a full 64 KiB-block cache, so each op fills a block and evicts
// the least-recent one.
func BenchmarkMissEvict(b *testing.B) {
	const size = 64 << 10
	src := make([]byte, size)
	c := New(4*size, 1)
	fill := func(dst []byte) error { copy(dst, src); return nil }
	b.ReportAllocs()
	b.SetBytes(size)
	for i := 0; i < b.N; i++ {
		p, err := c.GetOrLoad(Key{Owner: 1, Row: uint32(i)}, size, fill)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
