package topk

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// twoFields is a small two-field collection: dist[f][id] is entity id's
// distance to field f's query.
func twoFields(n int, seed int64) [2][]float32 {
	r := rand.New(rand.NewSource(seed))
	var d [2][]float32
	for f := range d {
		d[f] = make([]float32, n)
		for i := range d[f] {
			d[f][i] = r.Float32()
		}
	}
	return d
}

// sources are IterativeMerging's callbacks over d, counting the calls.
func sources(d [2][]float32, queries, scores *int) (func(f, kp int) ([]Result, error), func(int64, []float32) (float32, bool, error)) {
	query := func(f, kp int) ([]Result, error) {
		*queries++
		h := New(kp)
		for id, x := range d[f] {
			h.Push(int64(id), x)
		}
		return h.Results(), nil
	}
	score := func(id int64, w []float32) (float32, bool, error) {
		*scores++
		return w[0]*d[0][id] + w[1]*d[1][id], true, nil
	}
	return query, score
}

// TestIterativeMergingExact: with a threshold past the row count, the
// answer is the exact weighted top-k, whether NRA determines it in a round
// or the candidate union is rescored; with the threshold at k, the union of
// the top-k lists is rescored once.
func TestIterativeMergingExact(t *testing.T) {
	const n, k = 500, 10
	d := twoFields(n, 1)
	w := []float32{0.75, 0.25}
	truth := New(k)
	for id := range d[0] {
		truth.Push(int64(id), w[0]*d[0][id]+w[1]*d[1][id])
	}
	want := truth.Results()
	var queries, scores int
	query, score := sources(d, &queries, &scores)
	got, err := IterativeMerging(2, w, k, 2*n, query, score)
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("IterativeMerging = %v, %v; want %v", got, err, want)
	}
	if queries%2 != 0 {
		t.Fatalf("%d per-field queries, want whole rounds", queries)
	}
	queries, scores = 0, 0
	if _, err := IterativeMerging(2, w, k, k, query, score); err != nil {
		t.Fatal(err)
	}
	if queries != 2 || scores < k || scores > 2*k {
		t.Fatalf("threshold k: %d queries and %d scores, want 2 and the union of two top-%d lists", queries, scores, k)
	}
}

// TestIterativeMergingReturnsCallbackErrors: a failed per-field query or
// exact score is the answer's error, and nothing runs after it.
func TestIterativeMergingReturnsCallbackErrors(t *testing.T) {
	d := twoFields(100, 2)
	boom := errors.New("unreadable")
	var queries, scores int
	query, score := sources(d, &queries, &scores)
	failing := func(f, kp int) ([]Result, error) {
		if f == 1 {
			return nil, boom
		}
		return query(f, kp)
	}
	if res, err := IterativeMerging(2, nil, 5, 1<<10, failing, score); !errors.Is(err, boom) || res != nil {
		t.Fatalf("failing query: %v, %v; want nil, %v", res, err, boom)
	}
	if queries != 1 || scores != 0 {
		t.Fatalf("failing query: %d queries and %d scores ran, want 1 and 0", queries, scores)
	}
	queries, scores = 0, 0
	failScore := func(int64, []float32) (float32, bool, error) { scores++; return 0, false, boom }
	if res, err := IterativeMerging(2, nil, 5, 5, query, failScore); !errors.Is(err, boom) || res != nil {
		t.Fatalf("failing score: %v, %v; want nil, %v", res, err, boom)
	}
	if scores != 1 {
		t.Fatalf("failing score: %d scores ran, want 1", scores)
	}
}
