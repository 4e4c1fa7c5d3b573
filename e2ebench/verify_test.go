package main

import (
	"strings"
	"testing"

	"vectordb/client"
)

func TestCheckHitsFailingCases(t *testing.T) {
	attrs := []int64{5, 50, 500, 5000}
	in := searchReq{lo: 10, hi: 1000}
	sorted := []client.Result{{ID: 1, Distance: 0.1}, {ID: 2, Distance: 0.2}}
	for _, c := range []struct {
		name     string
		res      []client.Result
		k        int
		filtered bool
		wantErr  string // "" = passes
	}{
		{"exact k, ascending", sorted, 2, false, ""},
		{"ties are ascending", []client.Result{{ID: 1, Distance: 0.1}, {ID: 2, Distance: 0.1}}, 2, false, ""},
		{"too few unfiltered", sorted, 3, false, "got 2 hits, want 3"},
		{"too many", sorted, 1, false, "got 2 hits, want 1"},
		{"empty", nil, 2, true, "got 0 hits"},
		{"descending", []client.Result{{ID: 1, Distance: 0.2}, {ID: 2, Distance: 0.1}}, 2, false, "not ascending"},
		{"filtered may fall short of k", sorted, 10, true, ""},
		{"hit below the range", []client.Result{{ID: 0, Distance: 0.1}}, 1, true, "a=5 outside [10,1000]"},
		{"hit above the range", []client.Result{{ID: 1, Distance: 0.1}, {ID: 3, Distance: 0.2}}, 2, true, "a=5000 outside"},
		{"unknown id", []client.Result{{ID: 99, Distance: 0.1}}, 1, true, "unknown id 99"},
	} {
		err := checkHits(c.res, c.k, c.filtered, in, attrs)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestExactTopKAndOverlap(t *testing.T) {
	// Five rows on a line; the query sits at 0.
	data := []float32{1, 2, 3, 4, 5}
	attrs := []int64{0, 1, 0, 1, 0}
	q := searchReq{vec: []float32{0}, lo: 1, hi: 1}

	e := exactTopK(data, 1, 2, false, q, nil)
	if !e.ids[0] || !e.ids[1] || len(e.ids) != 2 || e.kth != 4 {
		t.Errorf("unfiltered exact = %+v, want ids {0,1} kth 4", e)
	}
	e = exactTopK(data, 1, 2, true, q, attrs)
	if !e.ids[1] || !e.ids[3] || len(e.ids) != 2 || e.kth != 16 {
		t.Errorf("filtered exact = %+v, want ids {1,3} kth 16", e)
	}

	full := []client.Result{{ID: 1}, {ID: 3}}
	half := []client.Result{{ID: 1}, {ID: 4}}
	none := []client.Result{{ID: 2}, {ID: 4}}
	for _, c := range []struct {
		res  []client.Result
		want float64
	}{{full, 1}, {half, 0.5}, {none, 0}} {
		if got := overlap(c.res, e, data, 1, q.vec); got != c.want {
			t.Errorf("overlap(%v) = %g, want %g", c.res, got, c.want)
		}
	}
	// A row a hair beyond the k-th distance counts: float32 kernels may
	// order near-ties the other way round.
	data = []float32{1, 2, 2.000001}
	e = exactTopK(data, 1, 2, false, q, nil)
	if got := overlap([]client.Result{{ID: 0}, {ID: 2}}, e, data, 1, q.vec); got != 1 {
		t.Errorf("near-tie overlap = %g, want 1", got)
	}
}
