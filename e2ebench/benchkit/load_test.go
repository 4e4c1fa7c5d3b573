package benchkit

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock is a Clock whose Sleep returns at once, having advanced the
// time by what was asked plus overshoot — a generator that wakes up late.
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func (c *fakeClock) Sleep(_ context.Context, d time.Duration) { c.advance(d + c.overshoot) }

const ms = time.Millisecond

func TestOpenLoopChargesAStallToTheRequestsQueuedBehindIt(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 60 * ms}
	// Every request takes 1 ms of server time, except request 1: 25 ms.
	samples := OpenLoop(context.Background(), clk, due, 1, func(_, i int) error {
		if i == 1 {
			clk.advance(25 * ms)
		} else {
			clk.advance(1 * ms)
		}
		return nil
	})
	// Request 1 is sent on time at 10 and returns at 35. Request 2 was due
	// at 20 but can only go at 35: it returns at 36, 16 ms after it was
	// due, though the server spent 1 ms on it. Request 3 (due 30) goes at
	// 36, returns at 37. Request 4 (due 60) finds the queue drained.
	want := []time.Duration{1 * ms, 25 * ms, 16 * ms, 7 * ms, 1 * ms}
	for i, s := range samples {
		if s.Latency != want[i] {
			t.Errorf("request %d: latency %v, want %v", i, s.Latency, want[i])
		}
		if s.Due != due[i] {
			t.Errorf("request %d: due %v, want %v", i, s.Due, due[i])
		}
		if s.Lag != 0 {
			t.Errorf("request %d: generator lag %v, want 0 (waiting for the connection is not the generator's lateness)", i, s.Lag)
		}
		if s.Failed {
			t.Errorf("request %d marked failed", i)
		}
	}
}

func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0), overshoot: 2 * ms}
	due := []time.Duration{10 * ms, 20 * ms}
	samples := OpenLoop(context.Background(), clk, due, 1, func(_, _ int) error {
		clk.advance(1 * ms)
		return nil
	})
	for i, s := range samples {
		if s.Lag != 2*ms {
			t.Errorf("request %d: lag %v, want the 2 ms the timer overslept", i, s.Lag)
		}
		if s.Latency != 3*ms {
			t.Errorf("request %d: latency %v, want 3 ms (from the due time, lateness included)", i, s.Latency)
		}
	}
}

func TestOpenLoopUnsentRequestsCountAsFailed(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	samples := OpenLoop(ctx, clk, []time.Duration{0, 10 * ms, 20 * ms}, 1, func(_, i int) error {
		cancel() // the run is abandoned while request 0 is in flight
		return nil
	})
	if samples[0].Failed || !samples[1].Failed || !samples[2].Failed {
		t.Errorf("failed flags = %v %v %v, want false true true", samples[0].Failed, samples[1].Failed, samples[2].Failed)
	}
}

func TestClosedLoopSendsNextOnlyAfterPreviousCompletes(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var seqs []int
	samples, next := ClosedLoop(context.Background(), clk, 1, 10*ms, 100, func(_, seq int) error {
		seqs = append(seqs, seq)
		clk.advance(4 * ms) // a slow server simply receives fewer requests
		return nil
	})
	if len(samples) != 3 || next != 103 {
		t.Fatalf("got %d samples, next=%d; want 3 samples (sent at 0, 4, 8 ms) and next=103", len(samples), next)
	}
	for i, s := range samples {
		if seqs[i] != 100+i || s.Due != time.Duration(i)*4*ms || s.Latency != 4*ms {
			t.Errorf("sample %d: seq %d due %v latency %v", i, seqs[i], s.Due, s.Latency)
		}
	}
}

func TestClosedLoopDealsTheStreamAcrossClients(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{} // seq → client
	_, next := ClosedLoop(context.Background(), WallClock{}, 2, 20*ms, 0, func(c, seq int) error {
		mu.Lock()
		seen[seq] = c
		mu.Unlock()
		return nil
	})
	for seq, c := range seen {
		if seq%2 != c {
			t.Fatalf("request %d went to client %d, want client %d", seq, c, seq%2)
		}
	}
	if next%2 != 0 || next < len(seen) {
		t.Errorf("next = %d with %d requests sent", next, len(seen))
	}
}
