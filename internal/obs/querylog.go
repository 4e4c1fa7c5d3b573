package obs

import (
	"sync"
	"time"
)

// SlowQuery is a slow-log entry: the rendered record plus its per-stage
// duration breakdown.
type SlowQuery struct {
	TraceSummary
	Breakdown map[string]time.Duration `json:"breakdown"`
}

// QueryLog keeps two fixed-size rings of finished query records: every
// recent query, and the subset slower than a settable threshold. Adding a
// record copies it by value over the oldest and allocates nothing; the
// rendered views are built only when Recent or Slow is read.
type QueryLog struct {
	mu      sync.Mutex
	recent  ring
	slow    ring
	slowAt  time.Duration
	total   int64
	slowCnt int64
}

// ring is a fixed-size ring of records, overwriting the oldest.
type ring struct {
	buf  []QueryRecord
	next int
	full bool
}

func (g *ring) put(r *QueryRecord) {
	g.buf[g.next] = *r
	if g.next++; g.next == len(g.buf) {
		g.next, g.full = 0, true
	}
}

// NewQueryLog sizes the rings and sets the slow threshold. Non-positive
// capacities fall back to small defaults; a non-positive threshold
// disables the slow log.
func NewQueryLog(recentCap, slowCap int, slowThreshold time.Duration) *QueryLog {
	if recentCap <= 0 {
		recentCap = 64
	}
	if slowCap <= 0 {
		slowCap = 32
	}
	return &QueryLog{
		recent: ring{buf: make([]QueryRecord, recentCap)},
		slow:   ring{buf: make([]QueryRecord, slowCap)},
		slowAt: slowThreshold,
	}
}

// Add finishes r and copies it into the rings. Nil-safe on both the log
// and the record; r may be reused or dropped afterwards.
func (l *QueryLog) Add(r *QueryRecord) {
	if l == nil || r == nil {
		return
	}
	r.Finish()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	l.recent.put(r)
	if l.slowAt > 0 && r.dur >= l.slowAt {
		l.slowCnt++
		l.slow.put(r)
	}
}

// Recent renders the recent records, most recent first.
func (l *QueryLog) Recent() []TraceSummary {
	if l == nil {
		return nil
	}
	return l.render(&l.recent)
}

// Slow renders the slow-log entries, most recent first, each with its
// per-stage breakdown.
func (l *QueryLog) Slow() []SlowQuery {
	if l == nil {
		return nil
	}
	out := []SlowQuery{}
	for _, s := range l.render(&l.slow) {
		out = append(out, SlowQuery{TraceSummary: s, Breakdown: s.StageBreakdown()})
	}
	return out
}

// render copies g's records out under the lock, most recent first, and
// renders the copies after releasing it.
func (l *QueryLog) render(g *ring) []TraceSummary {
	l.mu.Lock()
	n := g.next
	if g.full {
		n = len(g.buf)
	}
	recs := make([]QueryRecord, n)
	for i := range recs {
		recs[i] = g.buf[(g.next-1-i+len(g.buf))%len(g.buf)]
	}
	l.mu.Unlock()
	out := make([]TraceSummary, n)
	for i := range recs {
		out[i] = recs[i].Summary()
	}
	return out
}

// Total returns how many records were ever added (including ones the
// ring has since overwritten).
func (l *QueryLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// SlowTotal returns how many records crossed the slow threshold.
func (l *QueryLog) SlowTotal() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slowCnt
}
