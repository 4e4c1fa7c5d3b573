package benchkit

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Clock is the time source the load loops pace themselves by. Tests pass a
// fake whose Sleep advances it instantly.
type Clock interface {
	Now() time.Time
	// Sleep waits for d or until ctx ends, whichever comes first.
	Sleep(ctx context.Context, d time.Duration)
}

// WallClock is the real time source.
type WallClock struct{}

func (WallClock) Now() time.Time { return time.Now() }

// spinSlack is the end of every wait that WallClock spends in a yield loop
// instead of a timer. Timers on the reference host fire on a 1 ms grid (a
// 100 µs sleep takes 1.1 ms), which would make an open-loop generator about
// a millisecond late on every request and charge that to the server.
const spinSlack = 1500 * time.Microsecond

func (WallClock) Sleep(ctx context.Context, d time.Duration) {
	deadline := time.Now().Add(d)
	if d > spinSlack {
		t := time.NewTimer(d - spinSlack)
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		runtime.Gosched()
	}
}

// ClosedLoop runs clients callers for window: each sends its next request
// only when its previous one has completed, so a slow server receives less
// load. Client c issues requests c, c+clients, c+2·clients, … counted from
// first, and do reports whether request seq succeeded. Latency runs from
// the send. The returned samples are ordered by client, then by time; next
// is the first sequence number no client used, so a following loop can
// continue the same stream.
func ClosedLoop(ctx context.Context, clk Clock, clients int, window time.Duration, first int, do func(client, seq int) error) (samples []Sample, next int) {
	start := clk.Now()
	per := make([][]Sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := first + c; ctx.Err() == nil; seq += clients {
				t0 := clk.Now()
				due := t0.Sub(start)
				if due >= window {
					return
				}
				err := do(c, seq)
				per[c] = append(per[c], Sample{Due: due, Latency: clk.Now().Sub(t0), Failed: err != nil})
			}
		}(c)
	}
	wg.Wait()
	most := 0
	for _, p := range per {
		samples = append(samples, p...)
		if len(p) > most {
			most = len(p)
		}
	}
	return samples, first + most*clients
}

// OpenLoop sends request i at offset due[i] from the start whether or not
// earlier ones have completed their share of the server: requests are
// dealt round-robin to conns connections, each of which sends its own
// requests in due order. A connection still busy when a request falls due
// sends it as soon as it is free, and latency runs from the due time, so a
// stall is charged to every request queued behind it. Lag is how late the
// generator itself was: send time minus the later of the due time and the
// moment the connection became free.
func OpenLoop(ctx context.Context, clk Clock, due []time.Duration, conns int, do func(conn, i int) error) []Sample {
	start := clk.Now()
	samples := make([]Sample, len(due))
	for i := range samples {
		// A request the loop never gets to send (ctx ended) stays failed.
		samples[i] = Sample{Due: due[i], Failed: true}
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			free := time.Duration(0) // offset at which this connection last became free
			for i := c; i < len(due) && ctx.Err() == nil; i += conns {
				if wait := due[i] - clk.Now().Sub(start); wait > 0 {
					clk.Sleep(ctx, wait)
				}
				sent := clk.Now().Sub(start)
				ready := due[i]
				if free > ready {
					ready = free
				}
				err := do(c, i)
				free = clk.Now().Sub(start)
				samples[i] = Sample{Due: due[i], Latency: free - due[i], Lag: sent - ready, Failed: err != nil}
			}
		}(c)
	}
	wg.Wait()
	return samples
}
