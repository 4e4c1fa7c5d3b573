// Package nsg implements RNSG — the navigating-spreading-out graph of Fu et
// al. (cited as [20]; the paper's second graph-based index, Sec. 2.2). Build
// constructs an approximate kNN graph, selects a navigating node (the
// medoid), prunes edges with the MRNG occlusion rule, and guarantees
// reachability from the navigating node. Search is a greedy beam search of
// pool size L starting at the navigating node.
package nsg

import (
	"fmt"
	"math/rand"

	"vectordb/internal/index"
	"vectordb/internal/kmeans"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func init() {
	index.Register("RNSG", func(metric vec.Metric, dim int, params map[string]string) (index.Builder, error) {
		return NewBuilderFromParams(metric, dim, params)
	})
}

// Builder builds RNSG indexes.
type Builder struct {
	Metric vec.Metric
	Dim    int
	KNN    int // neighbors in the bootstrap kNN graph; default 20
	R      int // max out-degree after pruning; default 24
	L      int // candidate pool during construction; default 50
	Seed   int64
}

// NewBuilderFromParams parses registry parameters (knn, r, l, seed).
func NewBuilderFromParams(metric vec.Metric, dim int, params map[string]string) (*Builder, error) {
	if metric.Binary() {
		return nil, fmt.Errorf("nsg: binary metric %v not supported", metric)
	}
	b := &Builder{Metric: metric, Dim: dim}
	var err error
	if b.KNN, err = index.ParamInt(params, "knn", 20); err != nil {
		return nil, err
	}
	if b.R, err = index.ParamInt(params, "r", 24); err != nil {
		return nil, err
	}
	if b.L, err = index.ParamInt(params, "l", 50); err != nil {
		return nil, err
	}
	seed, err := index.ParamInt(params, "seed", 1)
	if err != nil {
		return nil, err
	}
	b.Seed = int64(seed)
	return b, nil
}

// Build constructs the graph.
func (b *Builder) Build(data []float32, ids []int64) (index.Index, error) {
	n, err := index.ValidateBuildInput(data, ids, b.Dim)
	if err != nil {
		return nil, err
	}
	knn, r, l := b.KNN, b.R, b.L
	if knn <= 0 {
		knn = 20
	}
	if r <= 0 {
		r = 24
	}
	if l <= 0 {
		l = 50
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	g := &NSG{
		metric: b.Metric,
		dim:    b.Dim,
		dist:   b.Metric.Dist(),
		data:   append([]float32(nil), data...),
		ids:    index.IDsOrDefault(ids, n),
		r:      r,
	}
	knnGraph := g.buildKNNGraph(n, knn, seed)
	g.nav = g.medoid(n)
	g.links = make([][]int32, n)
	rng := rand.New(rand.NewSource(seed))
	for node := 0; node < n; node++ {
		pool := g.candidatePool(node, knnGraph, l)
		g.links[node] = g.pruneMRNG(node, pool, r)
	}
	// Reverse-edge pass (the "interconnect" step of NSG): forward edges from
	// the medoid-anchored pools point back toward the navigating node, so
	// without reverse edges outward navigation stalls. Each reverse insert
	// re-prunes the target's adjacency with the same MRNG rule.
	for node := 0; node < n; node++ {
		for _, s := range g.links[node] {
			if g.hasEdge(int(s), int32(node)) {
				continue
			}
			g.links[s] = append(g.links[s], int32(node))
			if len(g.links[s]) > r {
				g.links[s] = g.reprune(int(s), r)
			}
		}
	}
	g.ensureReachable(rng)
	return g, nil
}

func (g *NSG) hasEdge(from int, to int32) bool {
	for _, nb := range g.links[from] {
		if nb == to {
			return true
		}
	}
	return false
}

// reprune rebuilds node's adjacency from its current neighbors via MRNG.
func (g *NSG) reprune(node, r int) []int32 {
	v := g.vecAt(node)
	pool := make([]topk.Result, 0, len(g.links[node]))
	for _, nb := range g.links[node] {
		pool = append(pool, topk.Result{ID: int64(nb), Distance: g.dist(v, g.vecAt(int(nb)))})
	}
	// sort ascending by distance (pools are small)
	for i := 1; i < len(pool); i++ {
		for j := i; j > 0 && pool[j].Distance < pool[j-1].Distance; j-- {
			pool[j], pool[j-1] = pool[j-1], pool[j]
		}
	}
	return g.pruneMRNG(node, pool, r)
}

// searchOnGraph runs the greedy pool search over an arbitrary adjacency list
// from start; it is used both to gather NSG construction candidates (the
// path from the medoid is what makes the final graph navigable) and as the
// core of query-time Search.
func (g *NSG) searchOnGraph(graph [][]int32, start int, query []float32, l int) []topk.Result {
	type cand struct {
		node    int32
		dist    float32
		checked bool
	}
	pool := make([]cand, 0, l+1)
	visited := map[int32]struct{}{int32(start): {}}
	insert := func(node int32, d float32) {
		pos := len(pool)
		for pos > 0 && pool[pos-1].dist > d {
			pos--
		}
		if pos >= l {
			return
		}
		pool = append(pool, cand{})
		copy(pool[pos+1:], pool[pos:])
		pool[pos] = cand{node: node, dist: d}
		if len(pool) > l {
			pool = pool[:l]
		}
	}
	insert(int32(start), g.dist(query, g.vecAt(start)))
	for {
		advanced := false
		for i := 0; i < len(pool); i++ {
			if pool[i].checked {
				continue
			}
			pool[i].checked = true
			advanced = true
			for _, nb := range graph[pool[i].node] {
				if _, seen := visited[nb]; seen {
					continue
				}
				visited[nb] = struct{}{}
				insert(nb, g.dist(query, g.vecAt(int(nb))))
			}
			break
		}
		if !advanced {
			break
		}
	}
	out := make([]topk.Result, 0, len(pool))
	for _, c := range pool {
		out = append(out, topk.Result{ID: int64(c.node), Distance: c.dist})
	}
	return out
}

// NSG is a built navigating-spreading-out graph.
type NSG struct {
	metric vec.Metric
	dim    int
	dist   vec.DistFunc
	data   []float32
	ids    []int64
	links  [][]int32
	nav    int // navigating node (medoid)
	r      int
}

func (g *NSG) vecAt(i int) []float32 { return g.data[i*g.dim : (i+1)*g.dim] }

// buildKNNGraph bootstraps an approximate kNN graph using a coarse K-means
// partition: each point's neighbor candidates come from its few closest
// clusters, turning the O(n²) exact construction into roughly O(n·n/nlist).
func (g *NSG) buildKNNGraph(n, k int, seed int64) [][]int32 {
	nlist := n / 64
	if nlist < 1 {
		nlist = 1
	}
	if nlist > 1024 {
		nlist = 1024
	}
	coarse, err := kmeans.Train(g.data, g.dim, kmeans.Config{K: nlist, MaxIter: 6, Seed: seed})
	if err != nil {
		// Fall back to a single bucket (exact kNN) — cannot happen for valid
		// input, but keeps the builder total.
		coarse = &kmeans.Result{K: 1, Dim: g.dim, Centroids: make([]float32, g.dim)}
	}
	buckets := make([][]int32, coarse.K)
	assign := make([]int, n)
	for i := 0; i < n; i++ {
		c, _ := coarse.Assign(g.vecAt(i))
		assign[i] = c
		buckets[c] = append(buckets[c], int32(i))
	}
	const probe = 3
	graph := make([][]int32, n)
	for i := 0; i < n; i++ {
		v := g.vecAt(i)
		h := topk.New(probe)
		for c := 0; c < coarse.K; c++ {
			h.Push(int64(c), vec.L2Squared(v, coarse.Centroid(c)))
		}
		nbh := topk.New(k)
		for _, cr := range h.Results() {
			for _, j := range buckets[int(cr.ID)] {
				if int(j) == i {
					continue
				}
				nbh.Push(int64(j), g.dist(v, g.vecAt(int(j))))
			}
		}
		rs := nbh.Results()
		graph[i] = make([]int32, len(rs))
		for x, rr := range rs {
			graph[i][x] = int32(rr.ID)
		}
	}
	return graph
}

func (g *NSG) medoid(n int) int {
	center := make([]float32, g.dim)
	for i := 0; i < n; i++ {
		row := g.vecAt(i)
		for j, x := range row {
			center[j] += x
		}
	}
	for j := range center {
		center[j] /= float32(n)
	}
	best, bestD := 0, float32(0)
	for i := 0; i < n; i++ {
		d := vec.L2Squared(center, g.vecAt(i))
		if i == 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// candidatePool gathers NSG construction candidates for node: the visited
// pool of a greedy search from the medoid over the bootstrap kNN graph (this
// threads navigable shortcuts along medoid→node paths), merged with the
// node's own kNN neighbors — exactly the NSG recipe.
func (g *NSG) candidatePool(node int, knnGraph [][]int32, l int) []topk.Result {
	v := g.vecAt(node)
	h := topk.New(l)
	seen := map[int32]struct{}{int32(node): {}}
	add := func(j int32, d float32) {
		if _, ok := seen[j]; ok {
			return
		}
		seen[j] = struct{}{}
		h.Push(int64(j), d)
	}
	for _, c := range g.searchOnGraph(knnGraph, g.nav, v, l) {
		add(int32(c.ID), c.Distance)
	}
	for _, nb := range knnGraph[node] {
		add(nb, g.dist(v, g.vecAt(int(nb))))
	}
	return h.Results()
}

// pruneMRNG keeps candidate p only if no already-kept neighbor s occludes it
// (dist(p,s) < dist(p,node)), bounding out-degree by r.
func (g *NSG) pruneMRNG(node int, pool []topk.Result, r int) []int32 {
	out := make([]int32, 0, r)
	for _, c := range pool {
		if len(out) >= r {
			break
		}
		cv := g.vecAt(int(c.ID))
		occluded := false
		for _, s := range out {
			if g.dist(cv, g.vecAt(int(s))) < c.Distance {
				occluded = true
				break
			}
		}
		if !occluded {
			out = append(out, int32(c.ID))
		}
	}
	return out
}

// ensureReachable links every node into the component of the navigating node
// (DFS from nav; unreached nodes get an in-edge from their nearest reached
// pool member, falling back to nav).
func (g *NSG) ensureReachable(rng *rand.Rand) {
	n := len(g.ids)
	reached := make([]bool, n)
	stack := []int{g.nav}
	reached[g.nav] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.links[cur] {
			if !reached[nb] {
				reached[nb] = true
				stack = append(stack, int(nb))
			}
		}
	}
	for u := 0; u < n; u++ {
		if reached[u] {
			continue
		}
		// Attach u under its nearest reached node among a random sample.
		v := g.vecAt(u)
		best, bestD := g.nav, g.dist(v, g.vecAt(g.nav))
		for t := 0; t < 64; t++ {
			c := rng.Intn(n)
			if !reached[c] {
				continue
			}
			if d := g.dist(v, g.vecAt(c)); d < bestD {
				best, bestD = c, d
			}
		}
		g.links[best] = append(g.links[best], int32(u))
		// Everything reachable through u is now reachable.
		reached[u] = true
		stack = append(stack, u)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range g.links[cur] {
				if !reached[nb] {
					reached[nb] = true
					stack = append(stack, int(nb))
				}
			}
		}
	}
}

// Name implements index.Index.
func (g *NSG) Name() string { return "RNSG" }

// Metric implements index.Index.
func (g *NSG) Metric() vec.Metric { return g.metric }

// Dim implements index.Index.
func (g *NSG) Dim() int { return g.dim }

// Size implements index.Index.
func (g *NSG) Size() int { return len(g.ids) }

// MemoryBytes implements index.Index.
func (g *NSG) MemoryBytes() int64 {
	b := int64(len(g.data))*4 + int64(len(g.ids))*8
	for _, l := range g.links {
		b += int64(len(l)) * 4
	}
	return b
}

// Search implements index.Index: greedy beam search of pool size SearchL
// from the navigating node. Filtered queries run skip-but-expand: the pool
// navigates the unfiltered graph while every *visited* passing node — not
// just the final pool — is collected, and an underfull result retries with
// a doubled pool until k matches are found or the pool covers the graph,
// so low selectivity widens the search instead of starving it.
func (g *NSG) Search(query []float32, p index.SearchParams) []topk.Result {
	l := p.SearchL
	if l <= 0 {
		l = 64
	}
	if l < p.K {
		l = p.K
	}
	if p.Bits == nil {
		out := topk.New(p.K)
		for _, c := range g.searchOnGraph(g.links, g.nav, query, l) {
			out.Push(g.ids[c.ID], c.Distance)
		}
		return out.Results()
	}
	// Node positions are build order: the pushed bitset is tested on the
	// node index.
	pass := func(node int32) bool { return p.Bits.Test(int(node)) }
	n := len(g.ids)
	if matched := p.Bits.Count(); matched <= 4*l {
		// Tiny survivor sets: an exact scan over the set bits is both
		// cheaper than graph navigation (whose pool would double until
		// it blankets the graph anyway) and exact — the low-selectivity
		// regime where traversal recall degrades.
		out := topk.New(p.K)
		for i := p.Bits.NextSet(0); i >= 0 && i < n; i = p.Bits.NextSet(i + 1) {
			out.Push(g.ids[i], g.dist(query, g.vecAt(i)))
		}
		return out.Results()
	}
	for {
		out := topk.New(p.K)
		g.searchFiltered(query, l, pass, out)
		if out.Len() >= p.K || l >= n {
			return out.Results()
		}
		l *= 2
		if l > n {
			l = n
		}
	}
}

// searchFiltered is searchOnGraph over the built graph with collect-at-visit:
// pool membership (navigation) ignores the filter, but every visited node
// that passes is offered to the caller's result heap, keeping matches found
// while walking through filtered-out regions.
func (g *NSG) searchFiltered(query []float32, l int, pass func(int32) bool, out *topk.Heap) {
	type cand struct {
		node    int32
		dist    float32
		checked bool
	}
	start := int32(g.nav)
	pool := make([]cand, 0, l+1)
	visited := map[int32]struct{}{start: {}}
	insert := func(node int32, d float32) {
		pos := len(pool)
		for pos > 0 && pool[pos-1].dist > d {
			pos--
		}
		if pos >= l {
			return
		}
		pool = append(pool, cand{})
		copy(pool[pos+1:], pool[pos:])
		pool[pos] = cand{node: node, dist: d}
		if len(pool) > l {
			pool = pool[:l]
		}
	}
	visit := func(node int32, d float32) {
		if pass(node) {
			out.Push(g.ids[node], d)
		}
		insert(node, d)
	}
	visit(start, g.dist(query, g.vecAt(int(start))))
	for {
		advanced := false
		for i := 0; i < len(pool); i++ {
			if pool[i].checked {
				continue
			}
			pool[i].checked = true
			advanced = true
			for _, nb := range g.links[pool[i].node] {
				if _, seen := visited[nb]; seen {
					continue
				}
				visited[nb] = struct{}{}
				visit(nb, g.dist(query, g.vecAt(int(nb))))
			}
			break
		}
		if !advanced {
			break
		}
	}
}
