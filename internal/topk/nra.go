package topk

import "sort"

// Multi-vector top-k (Sec. 4.2): each entity carries one vector per field,
// and a query ranks entities by the weighted sum of their per-field
// distances, Σ w_f·d_f, which is monotone in every field. NRA and
// IterativeMerging (Alg. 2) find that top-k from per-field top-k lists.

// UnitWeights returns w, or [1, 1, ...] over fields when w is nil.
func UnitWeights(w []float32, fields int) []float32 {
	if w != nil {
		return w
	}
	w = make([]float32, fields)
	for i := range w {
		w[i] = 1
	}
	return w
}

// NRAResult is the outcome of one NRA pass.
type NRAResult struct {
	Results []Result
	// Determined reports whether the top-k was fully determined (NRA's safe
	// stopping condition held before the lists were exhausted).
	Determined bool
	// Accesses counts sorted accesses consumed.
	Accesses int
}

// byDistance sorts rs ascending by distance, ties broken by ID.
func byDistance(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Distance != rs[j].Distance {
			return rs[i].Distance < rs[j].Distance
		}
		return rs[i].ID < rs[j].ID
	})
}

// NRA runs Fagin's No-Random-Access algorithm over per-field result lists
// (each sorted ascending by distance), with weights nil meaning all 1. With
// distance aggregation the bounds are: an entity's best case uses the
// current list frontiers for unseen fields (no unseen distance can be
// smaller than the frontier); its score is exact once seen in every list.
// The algorithm stops when k exact scores are at most every other entity's
// best case — including the virtual never-seen entity whose best case is
// the sum of all frontiers.
//
// The stopping condition is evaluated at geometrically spaced depths (and
// at exhaustion) rather than after every access: the bounds only tighten
// with depth, so a deferred check is still sound, and skipping the
// O(|candidates|) rescan per access is the heap-maintenance saving
// iterative merging claims over standard NRA (Sec. 4.2).
//
// When the lists are exhausted first, Determined is false and the returned
// ranking falls back to best-case ordering, which is why bounded NRA-x in
// Fig. 16 has low recall.
func NRA(lists [][]Result, weights []float32, k int) NRAResult {
	nf := len(lists)
	weights = UnitWeights(weights, nf)
	type state struct {
		partial float32
		mask    uint64
		seen    int
	}
	objs := map[int64]*state{}
	frontier := make([]float32, nf)
	maxDepth := 0
	for _, l := range lists {
		maxDepth = max(maxDepth, len(l))
	}
	accesses := 0

	bestCase := func(st *state) float32 {
		b := st.partial
		for f := 0; f < nf; f++ {
			if st.mask&(1<<uint(f)) == 0 {
				b += weights[f] * frontier[f]
			}
		}
		return b
	}

	checkStop := func() ([]Result, bool) {
		var exact []Result
		for id, st := range objs {
			if st.seen == nf {
				exact = append(exact, Result{ID: id, Distance: st.partial})
			}
		}
		if len(exact) < k {
			return nil, false
		}
		byDistance(exact)
		exact = exact[:k]
		tau := exact[k-1].Distance
		var unseenBest float32 // the virtual never-seen entity
		for f := 0; f < nf; f++ {
			unseenBest += weights[f] * frontier[f]
		}
		if tau > unseenBest {
			return nil, false
		}
		inTop := map[int64]struct{}{}
		for _, e := range exact {
			inTop[e.ID] = struct{}{}
		}
		for id, st := range objs {
			if _, ok := inTop[id]; !ok && bestCase(st) < tau {
				return nil, false
			}
		}
		return exact, true
	}

	nextCheck := k
	for depth := 0; depth < maxDepth; {
		for f := 0; f < nf; f++ {
			if depth >= len(lists[f]) {
				continue
			}
			r := lists[f][depth]
			accesses++
			frontier[f] = r.Distance
			st := objs[r.ID]
			if st == nil {
				st = &state{}
				objs[r.ID] = st
			}
			if st.mask&(1<<uint(f)) == 0 {
				st.mask |= 1 << uint(f)
				st.seen++
				st.partial += weights[f] * r.Distance
			}
		}
		depth++
		if depth >= nextCheck || depth == maxDepth {
			nextCheck *= 2
			if res, ok := checkStop(); ok {
				return NRAResult{Results: res, Determined: true, Accesses: accesses}
			}
		}
	}
	// Lists exhausted: best-effort ranking by best-case bound.
	all := make([]Result, 0, len(objs))
	for id, st := range objs {
		all = append(all, Result{ID: id, Distance: bestCase(st)})
	}
	byDistance(all)
	if len(all) > k {
		all = all[:k]
	}
	return NRAResult{Results: all, Accesses: accesses}
}

// IterativeMerging is Algorithm 2 over fields per-field sources: query
// answers field f's top-k′, and NRA runs over the lists; if it determines
// the top-k, that is the answer, otherwise k′ doubles while it is below
// threshold. On fallback the answer is the top-k of the candidate union
// ∪Rᵢ, each scored exactly by score: its aggregate under the weights it is
// handed (weights, or all 1 for nil), ok false for an entity that is gone.
// The first error either callback returns is the answer's.
func IterativeMerging(fields int, weights []float32, k, threshold int,
	query func(f, kp int) ([]Result, error),
	score func(id int64, weights []float32) (float32, bool, error)) ([]Result, error) {
	weights = UnitWeights(weights, fields)
	threshold = max(threshold, k)
	var lists [][]Result
	fetch := func(kp int) (err error) {
		lists = make([][]Result, fields)
		for f := range lists {
			if lists[f], err = query(f, kp); err != nil {
				return err
			}
		}
		return nil
	}
	kp := k
	for ; kp < threshold; kp *= 2 {
		if err := fetch(kp); err != nil {
			return nil, err
		}
		if res := NRA(lists, weights, k); res.Determined {
			return res.Results, nil
		}
	}
	if lists == nil {
		if err := fetch(kp); err != nil {
			return nil, err
		}
	}
	// The top-k of ∪Rᵢ (line 9).
	seen := map[int64]struct{}{}
	h := New(k)
	for _, l := range lists {
		for _, r := range l {
			if _, dup := seen[r.ID]; dup {
				continue
			}
			seen[r.ID] = struct{}{}
			s, ok, err := score(r.ID, weights)
			if err != nil {
				return nil, err
			}
			if ok {
				h.Push(r.ID, s)
			}
		}
	}
	return h.Results(), nil
}
