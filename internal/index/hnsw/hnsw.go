// Package hnsw implements the Hierarchical Navigable Small World graph index
// (Malkov & Yashunin, cited as [49] in the paper; one of Milvus's two
// graph-based indexes, Sec. 2.2). Vectors are inserted into a layered
// proximity graph; search greedily descends from a top-level entry point and
// runs a beam search of width ef at the base layer.
package hnsw

import (
	"fmt"
	"math"
	"math/rand"

	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func init() {
	index.Register("HNSW", func(metric vec.Metric, dim int, params map[string]string) (index.Builder, error) {
		return NewBuilderFromParams(metric, dim, params)
	})
}

// Builder builds HNSW indexes.
type Builder struct {
	Metric         vec.Metric
	Dim            int
	M              int // max out-degree above level 0 (level 0 allows 2M); default 16
	EfConstruction int // beam width during insertion; default 200
	Seed           int64
}

// NewBuilderFromParams parses registry parameters (m, ef_construction, seed).
func NewBuilderFromParams(metric vec.Metric, dim int, params map[string]string) (*Builder, error) {
	if metric.Binary() {
		return nil, fmt.Errorf("hnsw: binary metric %v not supported", metric)
	}
	b := &Builder{Metric: metric, Dim: dim}
	var err error
	if b.M, err = index.ParamInt(params, "m", 16); err != nil {
		return nil, err
	}
	if b.EfConstruction, err = index.ParamInt(params, "ef_construction", 200); err != nil {
		return nil, err
	}
	seed, err := index.ParamInt(params, "seed", 1)
	if err != nil {
		return nil, err
	}
	b.Seed = int64(seed)
	if b.M < 2 {
		return nil, fmt.Errorf("hnsw: m must be ≥ 2, got %d", b.M)
	}
	return b, nil
}

// Build inserts all vectors into a fresh graph.
func (b *Builder) Build(data []float32, ids []int64) (index.Index, error) {
	n, err := index.ValidateBuildInput(data, ids, b.Dim)
	if err != nil {
		return nil, err
	}
	m := b.M
	if m == 0 {
		m = 16
	}
	efc := b.EfConstruction
	if efc == 0 {
		efc = 200
	}
	if efc < m {
		efc = m
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	h := &HNSW{
		metric: b.Metric,
		dim:    b.Dim,
		dist:   b.Metric.Dist(),
		m:      m,
		mmax0:  2 * m,
		efc:    efc,
		ml:     1 / math.Log(float64(m)),
		data:   append([]float32(nil), data...),
		ids:    index.IDsOrDefault(ids, n),
		links:  make([][][]int32, n),
		entry:  -1,
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		h.insert(i, r)
	}
	return h, nil
}

// HNSW is a built graph index.
type HNSW struct {
	metric vec.Metric
	dim    int
	dist   vec.DistFunc
	m      int
	mmax0  int
	efc    int
	ml     float64
	data   []float32
	ids    []int64
	// links[node][level] lists neighbor node positions.
	links    [][][]int32
	entry    int
	maxLevel int
}

func (h *HNSW) vecAt(i int) []float32 { return h.data[i*h.dim : (i+1)*h.dim] }

func (h *HNSW) randomLevel(r *rand.Rand) int {
	return int(-math.Log(1-r.Float64()) * h.ml)
}

func (h *HNSW) insert(node int, r *rand.Rand) {
	level := h.randomLevel(r)
	h.links[node] = make([][]int32, level+1)
	if h.entry < 0 {
		h.entry = node
		h.maxLevel = level
		return
	}
	q := h.vecAt(node)
	ep := h.entry
	// Greedy descent through levels above the node's level.
	for l := h.maxLevel; l > level; l-- {
		ep = h.greedyClosest(q, ep, l)
	}
	// Beam search + connect at each level the node participates in.
	top := level
	if top > h.maxLevel {
		top = h.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := h.searchLayer(q, ep, h.efc, l, nil)
		sel := h.selectNeighbors(q, cands, h.m)
		h.links[node][l] = sel
		maxDeg := h.m
		if l == 0 {
			maxDeg = h.mmax0
		}
		for _, nb := range sel {
			h.links[nb][l] = append(h.links[nb][l], int32(node))
			if len(h.links[nb][l]) > maxDeg {
				h.links[nb][l] = h.shrink(int(nb), h.links[nb][l], maxDeg)
			}
		}
		if len(cands) > 0 {
			ep = int(cands[0].ID)
		}
	}
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = node
	}
}

// shrink re-selects the best maxDeg neighbors of node by the diversity
// heuristic.
func (h *HNSW) shrink(node int, neighbors []int32, maxDeg int) []int32 {
	q := h.vecAt(node)
	cands := make([]topk.Result, len(neighbors))
	for i, nb := range neighbors {
		cands[i] = topk.Result{ID: int64(nb), Distance: h.dist(q, h.vecAt(int(nb)))}
	}
	sortByDistance(cands)
	return h.selectNeighbors(q, cands, maxDeg)
}

// selectNeighbors applies the HNSW diversity heuristic: a candidate is kept
// only if it is closer to q than to every already-kept neighbor, which
// spreads edges across directions instead of clustering them.
func (h *HNSW) selectNeighbors(q []float32, cands []topk.Result, m int) []int32 {
	out := make([]int32, 0, m)
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		cv := h.vecAt(int(c.ID))
		ok := true
		for _, kept := range out {
			if h.dist(cv, h.vecAt(int(kept))) < c.Distance {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, int32(c.ID))
		}
	}
	// Backfill with nearest remaining if the heuristic was too strict.
	for _, c := range cands {
		if len(out) >= m {
			break
		}
		dup := false
		for _, kept := range out {
			if kept == int32(c.ID) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, int32(c.ID))
		}
	}
	return out
}

func (h *HNSW) greedyClosest(q []float32, ep, level int) int {
	cur := ep
	curD := h.dist(q, h.vecAt(cur))
	for {
		improved := false
		for _, nb := range h.links[cur][level] {
			if d := h.dist(q, h.vecAt(int(nb))); d < curD {
				cur, curD = int(nb), d
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the ef-bounded beam search at one level. When pass is
// non-nil the traversal is skip-but-expand: filtered-out nodes are never
// returned but are still navigated *through*, and while the result heap is
// underfull the beam keeps expanding past the unfiltered nav bound — so
// connectivity survives low selectivity instead of the beam stalling on a
// neighborhood where nothing matches (strategy B, Sec. 4.1).
func (h *HNSW) searchLayer(q []float32, ep, ef, level int, pass func(int) bool) []topk.Result {
	visited := make(map[int32]struct{}, ef*4)
	visited[int32(ep)] = struct{}{}
	epD := h.dist(q, h.vecAt(ep))

	cand := &minQueue{}
	cand.push(topk.Result{ID: int64(ep), Distance: epD})
	best := topk.New(ef)
	if pass == nil || pass(ep) {
		best.Push(int64(ep), epD)
	}
	// navBound tracks the ef-th best *visited* distance regardless of the
	// filter, so navigation doesn't stall when few candidates match.
	nav := topk.New(ef)
	nav.Push(int64(ep), epD)

	for cand.len() > 0 {
		c := cand.pop()
		if pass == nil {
			if w, ok := nav.Worst(); ok && nav.Full() && c.Distance > w {
				break
			}
		} else if best.Full() {
			// Filtered: the only sound bound is over *passing* nodes; the
			// nav bound would cut the beam while matches may still lie
			// beyond a filtered-out neighborhood.
			if w, ok := best.Worst(); ok && c.Distance > w {
				break
			}
		}
		if level >= len(h.links[int(c.ID)]) {
			continue
		}
		for _, nb := range h.links[int(c.ID)][level] {
			if _, seen := visited[nb]; seen {
				continue
			}
			visited[nb] = struct{}{}
			d := h.dist(q, h.vecAt(int(nb)))
			expand := !nav.Full() || nav.Accepts(d)
			if !expand && pass != nil && !best.Full() {
				// Skip-but-expand: keep walking while results are scarce.
				expand = true
			}
			if expand {
				cand.push(topk.Result{ID: int64(nb), Distance: d})
				nav.Push(int64(nb), d)
				if pass == nil || pass(int(nb)) {
					best.Push(int64(nb), d)
				}
			}
		}
	}
	// Results carry node *positions* in the ID field; Search translates them
	// to external row IDs.
	return best.Results()
}

// Name implements index.Index.
func (h *HNSW) Name() string { return "HNSW" }

// Metric implements index.Index.
func (h *HNSW) Metric() vec.Metric { return h.metric }

// Dim implements index.Index.
func (h *HNSW) Dim() int { return h.dim }

// Size implements index.Index.
func (h *HNSW) Size() int { return len(h.ids) }

// MemoryBytes implements index.Index.
func (h *HNSW) MemoryBytes() int64 {
	b := int64(len(h.data))*4 + int64(len(h.ids))*8
	for _, levels := range h.links {
		for _, l := range levels {
			b += int64(len(l)) * 4
		}
	}
	return b
}

// Search implements index.Index.
func (h *HNSW) Search(query []float32, p index.SearchParams) []topk.Result {
	if h.entry < 0 {
		return nil
	}
	ef := p.Ef
	if ef <= 0 {
		ef = 64
	}
	if ef < p.K {
		ef = p.K
	}
	ep := h.entry
	for l := h.maxLevel; l > 0; l-- {
		ep = h.greedyClosest(query, ep, l)
	}
	// Node positions are build order, so a pushed bitset is tested directly
	// on the node index.
	var pass func(int) bool
	if p.Bits != nil {
		pass = p.Bits.Test
	}
	cands := h.searchLayer(query, ep, ef, 0, pass)
	out := topk.New(p.K)
	for _, c := range cands {
		node := int(c.ID)
		if pass != nil && !pass(node) {
			continue
		}
		out.Push(h.ids[node], c.Distance)
	}
	return out.Results()
}

// minQueue is a simple binary min-heap on Distance (candidate frontier).
type minQueue struct{ data []topk.Result }

func (q *minQueue) len() int { return len(q.data) }

func (q *minQueue) push(r topk.Result) {
	q.data = append(q.data, r)
	i := len(q.data) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.data[p].Distance <= q.data[i].Distance {
			break
		}
		q.data[p], q.data[i] = q.data[i], q.data[p]
		i = p
	}
}

func (q *minQueue) pop() topk.Result {
	top := q.data[0]
	last := len(q.data) - 1
	q.data[0] = q.data[last]
	q.data = q.data[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q.data) && q.data[l].Distance < q.data[small].Distance {
			small = l
		}
		if r < len(q.data) && q.data[r].Distance < q.data[small].Distance {
			small = r
		}
		if small == i {
			break
		}
		q.data[i], q.data[small] = q.data[small], q.data[i]
		i = small
	}
	return top
}

func sortByDistance(rs []topk.Result) {
	// insertion sort; candidate lists are small (≤ efc)
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Distance < rs[j-1].Distance; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
