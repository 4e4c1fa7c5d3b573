package benchkit

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Start and End are offsets from the
// recorder's creation; Parent is the ID of the span that caused it (0 for a
// request's root); spans of one request share Request. Replayed marks a
// span whose duration was measured by calling the layer again outside the
// live request and whose position was then rebased into its parent.
type Span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Request  int           `json:"request"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Replayed bool          `json:"replayed,omitempty"`
}

// Recorder keeps spans in memory until the run ends. Its methods are safe
// for concurrent use: the client and the server handler of one request run
// on different goroutines.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a live span and returns its ID; End closes it.
func (r *Recorder) Start(request, parent int, name string) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Request: request, Name: name, Start: now, End: now})
	return id
}

func (r *Recorder) End(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Rebase records a replayed span of length d as a child of parent, placed
// offset after the parent's start. The caller chooses offsets: children
// that run one after another in the program get running offsets, children
// the program runs side by side all get the same one. A child may overrun
// its parent — the replay took longer than the live call left room for —
// and SelfTimes then clamps the parent's self time at zero.
func (r *Recorder) Rebase(parent int, name string, offset, d time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Request: p.Request, Name: name,
		Start: p.Start + offset, End: p.Start + offset + d, Replayed: true,
	})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteJSONLines writes one span per line.
func WriteJSONLines(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SelfTimes returns, per span ID, the span's duration minus the part of it
// that its children cover (the union of their intervals, clipped to the
// span), never below zero.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// Layer is one span name's times over a trace: per request, the summed
// duration of its spans and their summed self time, in microseconds.
type Layer struct{ Total, Self []float64 }

// Layers groups spans by name within each request. A request that never
// reached a layer contributes nothing to that layer's lists.
func Layers(spans []Span) map[string]*Layer {
	self := SelfTimes(spans)
	type key struct {
		request int
		name    string
	}
	type sums struct{ total, self time.Duration }
	per := map[key]*sums{}
	for _, s := range spans {
		k := key{s.Request, s.Name}
		if per[k] == nil {
			per[k] = &sums{}
		}
		per[k].total += s.End - s.Start
		per[k].self += self[s.ID]
	}
	out := map[string]*Layer{}
	for k, v := range per {
		l := out[k.name]
		if l == nil {
			l = &Layer{}
			out[k.name] = l
		}
		l.Total = append(l.Total, float64(v.total)/float64(time.Microsecond))
		l.Self = append(l.Self, float64(v.self)/float64(time.Microsecond))
	}
	return out
}
