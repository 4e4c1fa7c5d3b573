package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"vectordb/client"
)

// checkHits verifies one search response: k hits, distances ascending,
// and — on a filtering workload — every hit's attribute inside the
// request's range. A filtered approximate search may find fewer than k
// matches in the buckets it probes (recall_at_k charges for that), so there
// the count only has to be between 1 and k. attrs is indexed by ID.
func checkHits(res []client.Result, k int, filtered bool, req searchReq, attrs []int64) error {
	if len(res) > k || len(res) == 0 || (!filtered && len(res) != k) {
		return fmt.Errorf("got %d hits, want %d", len(res), k)
	}
	for i, h := range res {
		if i > 0 && h.Distance < res[i-1].Distance {
			return fmt.Errorf("hit %d: distance %g after %g, not ascending", i, h.Distance, res[i-1].Distance)
		}
		if !filtered {
			continue
		}
		if h.ID < 0 || h.ID >= int64(len(attrs)) {
			return fmt.Errorf("hit %d: unknown id %d", i, h.ID)
		}
		if a := attrs[h.ID]; a < req.lo || a > req.hi {
			return fmt.Errorf("hit %d: id %d has a=%d outside [%d,%d]", i, h.ID, a, req.lo, req.hi)
		}
	}
	return nil
}

// exact is the reference answer to one search: the k nearest rows by
// squared L2 in float64, among rows whose attribute passes the filter. It
// shares no code with the program under test.
type exact struct {
	ids map[int64]bool
	kth float64 // distance of the farthest of them
}

// tieSlack is how far beyond the k-th exact distance a returned row may lie
// and still count as correct: float32 kernels sum in another order than the
// float64 reference, so rows a hair apart at the boundary may swap.
const tieSlack = 1e-5

func l2(row, q []float32) float64 {
	var d float64
	for j, x := range row {
		diff := float64(x) - float64(q[j])
		d += diff * diff
	}
	return d
}

func exactTopK(data []float32, dim, k int, filtered bool, req searchReq, attrs []int64) exact {
	type cand struct {
		id int64
		d  float64
	}
	best := make([]cand, 0, k+1) // ascending by distance
	for i, n := 0, len(data)/dim; i < n; i++ {
		if filtered && (attrs[i] < req.lo || attrs[i] > req.hi) {
			continue
		}
		d := l2(data[i*dim:(i+1)*dim], req.vec)
		if len(best) == k && d >= best[k-1].d {
			continue
		}
		at := sort.Search(len(best), func(j int) bool { return best[j].d > d })
		best = append(best, cand{})
		copy(best[at+1:], best[at:])
		best[at] = cand{int64(i), d}
		if len(best) > k {
			best = best[:k]
		}
	}
	e := exact{ids: make(map[int64]bool, len(best))}
	for _, c := range best {
		e.ids[c.id] = true
		e.kth = c.d
	}
	return e
}

// recallAtK is the mean share of each exact answer that the program
// returned, over the first w.RecallSample searches of the stream. It runs
// on the quiesced collection right after set-up, one search at a time, and
// every response also goes through checkHits.
func recallAtK(t target, w Workload, in *inputs) (float64, error) {
	n := min(w.RecallSample, len(in.searches))
	truth := make([]exact, n)
	var wg sync.WaitGroup
	const workers = 2
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				truth[i] = exactTopK(in.data, w.Dim, w.K, w.Filter, in.searches[i], in.attrs)
			}
		}(g)
	}
	wg.Wait()
	sum := 0.0
	for i := 0; i < n; i++ {
		res, err := t.search(0, w, in.searches[i])
		if err != nil {
			return 0, fmt.Errorf("recall search %d: %w", i, err)
		}
		if err := checkHits(res, w.K, w.Filter, in.searches[i], in.attrs); err != nil {
			return 0, fmt.Errorf("recall search %d: %w", i, err)
		}
		sum += overlap(res, truth[i], in.data, w.Dim, in.searches[i].vec)
	}
	return sum / float64(n), nil
}

// overlap is the share of the exact answer that res holds. A returned row
// outside the exact set still counts when its distance is within tieSlack
// of the k-th exact distance: a tie at the boundary, resolved the other way.
func overlap(res []client.Result, e exact, data []float32, dim int, q []float32) float64 {
	if len(e.ids) == 0 {
		return 1
	}
	found := 0
	for _, h := range res {
		if e.ids[h.ID] || math.Abs(l2(data[int(h.ID)*dim:][:dim], q)-e.kth) <= e.kth*tieSlack {
			found++
		}
	}
	return float64(min(found, len(e.ids))) / float64(len(e.ids))
}
