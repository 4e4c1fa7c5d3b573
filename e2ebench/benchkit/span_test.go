package benchkit

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

const us = time.Microsecond

func TestSelfTimesOnAHandBuiltTree(t *testing.T) {
	spans := []Span{
		{ID: 1, Request: 1, Name: "client", Start: 0, End: 100 * us},
		{ID: 2, Parent: 1, Request: 1, Name: "rest", Start: 10 * us, End: 90 * us},
		{ID: 3, Parent: 2, Request: 1, Name: "core", Start: 20 * us, End: 80 * us},
		// Two index children that overlap (segments searched side by side):
		// together they cover 30..70, not 25+25.
		{ID: 4, Parent: 3, Request: 1, Name: "index", Start: 30 * us, End: 55 * us},
		{ID: 5, Parent: 3, Request: 1, Name: "index", Start: 45 * us, End: 70 * us},
		// A replayed child that overruns its parent is clipped to it.
		{ID: 6, Parent: 5, Request: 1, Name: "vec", Start: 45 * us, End: 95 * us, Replayed: true},
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{
		1: 20 * us, // 100 − rest's 80
		2: 20 * us, // 80 − core's 60
		3: 20 * us, // 60 − the 40 the two index spans cover together
		4: 25 * us,
		5: 0,       // vec covers all of it, and more
		6: 50 * us, // a leaf keeps its full length
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}

	layers := Layers(spans)
	if got := layers["index"].Total; len(got) != 1 || got[0] != 50 {
		t.Errorf("index total per request = %v, want [50] (both spans of the request summed)", got)
	}
	if got := layers["index"].Self; len(got) != 1 || got[0] != 25 {
		t.Errorf("index self per request = %v, want [25]", got)
	}
}

func TestRecorderRebaseAndJSONLines(t *testing.T) {
	r := NewRecorder()
	root := r.Start(7, 0, "client")
	r.End(root)
	a := r.Rebase(root, "core", 0, 30*us)
	b := r.Rebase(a, "plan", 0, 10*us)
	c := r.Rebase(a, "index", 10*us, 15*us) // after plan
	spans := r.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	rs := spans[root-1]
	if s := spans[a-1]; s.Parent != root || s.Request != 7 || s.Start != rs.Start || s.End-s.Start != 30*us || !s.Replayed {
		t.Errorf("core span = %+v", s)
	}
	if s := spans[c-1]; s.Start != spans[b-1].End || s.Request != 7 {
		t.Errorf("index should start where plan ends: %+v vs %+v", s, spans[b-1])
	}
	if self := SelfTimes(spans)[a]; self != 5*us {
		t.Errorf("core self = %v, want 30−10−15 = 5µs", self)
	}

	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, spans); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 || !strings.Contains(lines[1], `"name":"core"`) || !strings.Contains(lines[1], `"replayed":true`) {
		t.Errorf("JSON lines = %q", lines)
	}
}
