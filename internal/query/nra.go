package query

import (
	"sort"

	"vectordb/internal/topk"
)

// StandardNRA is the textbook No-Random-Access algorithm (Fagin et al.,
// cited as [19]) used as the Fig. 16 baseline. Unlike the round-based
// topk.NRA inside iterative merging, the standard algorithm interleaves its
// bookkeeping with every sorted access: after each access it refreshes the
// affected bounds and rescans the candidate set for the stopping condition.
// That per-access maintenance is precisely the overhead the paper calls out
// ("it incurs significant overhead to maintain the heap since every access
// in NRA needs to update the scores of the current objects"), and what
// iterative merging's batched rounds avoid.
func StandardNRA(lists [][]topk.Result, weights []float32, k int) topk.NRAResult {
	nf := len(lists)
	weights = topk.UnitWeights(weights, nf)
	type cand struct {
		id      int64
		partial float32
		mask    uint64
		seen    int
	}
	byID := map[int64]*cand{}
	var cands []*cand
	frontier := make([]float32, nf)
	accesses := 0

	bestCase := func(c *cand) float32 {
		b := c.partial
		for f := 0; f < nf; f++ {
			if c.mask&(1<<uint(f)) == 0 {
				b += weights[f] * frontier[f]
			}
		}
		return b
	}

	// stop scans the whole candidate set — the standard algorithm's
	// per-access cost.
	stop := func() []topk.Result {
		var exact []topk.Result
		for _, c := range cands {
			if c.seen == nf {
				exact = append(exact, topk.Result{ID: c.id, Distance: c.partial})
			}
		}
		if len(exact) < k {
			return nil
		}
		sort.Slice(exact, func(i, j int) bool {
			if exact[i].Distance != exact[j].Distance {
				return exact[i].Distance < exact[j].Distance
			}
			return exact[i].ID < exact[j].ID
		})
		exact = exact[:k]
		tau := exact[k-1].Distance
		var unseen float32
		for f := 0; f < nf; f++ {
			unseen += weights[f] * frontier[f]
		}
		if tau > unseen {
			return nil
		}
		inTop := map[int64]struct{}{}
		for _, e := range exact {
			inTop[e.ID] = struct{}{}
		}
		for _, c := range cands {
			if _, ok := inTop[c.id]; ok {
				continue
			}
			if bestCase(c) < tau {
				return nil
			}
		}
		return exact
	}

	maxDepth := 0
	for _, l := range lists {
		if len(l) > maxDepth {
			maxDepth = len(l)
		}
	}
	for depth := 0; depth < maxDepth; depth++ {
		for f := 0; f < nf; f++ {
			if depth >= len(lists[f]) {
				continue
			}
			r := lists[f][depth]
			accesses++
			frontier[f] = r.Distance
			c := byID[r.ID]
			if c == nil {
				c = &cand{id: r.ID}
				byID[r.ID] = c
				cands = append(cands, c)
			}
			if c.mask&(1<<uint(f)) == 0 {
				c.mask |= 1 << uint(f)
				c.seen++
				c.partial += weights[f] * r.Distance
			}
			// Per-access stopping check: the standard algorithm's
			// characteristic O(|candidates|) bookkeeping.
			if res := stop(); res != nil {
				return topk.NRAResult{Results: res, Determined: true, Accesses: accesses}
			}
		}
	}
	// Exhausted: best-effort ranking by best-case bound.
	all := make([]topk.Result, 0, len(cands))
	for _, c := range cands {
		all = append(all, topk.Result{ID: c.id, Distance: bestCase(c)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return topk.NRAResult{Results: all, Determined: false, Accesses: accesses}
}

// BoundedStandardNRA is the paper's NRA-x baseline: fetch the top-x per
// field once and run the standard per-access NRA over the bounded lists.
func BoundedStandardNRA(ms MultiSource, queries [][]float32, weights []float32, k, x int) topk.NRAResult {
	lists := make([][]topk.Result, ms.Fields())
	for f := range lists {
		lists[f] = ms.FieldQuery(f, queries[f], x)
	}
	return StandardNRA(lists, weights, k)
}
