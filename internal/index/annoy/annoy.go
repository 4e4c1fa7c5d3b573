// Package annoy implements an ANNOY-style random-projection forest — the
// tree-based index the paper supports alongside quantization- and
// graph-based ones (footnote 3; SPTAG in the evaluation is also tree-based).
// Each tree recursively splits the data with hyperplanes bisecting two
// random points; search walks all trees best-first by hyperplane margin,
// collects a candidate set, and re-ranks it with exact distances.
package annoy

import (
	"fmt"
	"math/rand"

	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func init() {
	index.Register("ANNOY", func(metric vec.Metric, dim int, params map[string]string) (index.Builder, error) {
		return NewBuilderFromParams(metric, dim, params)
	})
}

// Builder builds ANNOY forests.
type Builder struct {
	Metric   vec.Metric
	Dim      int
	NTrees   int // default 8
	LeafSize int // default 32
	Seed     int64
}

// NewBuilderFromParams parses registry parameters (ntrees, leaf, seed).
func NewBuilderFromParams(metric vec.Metric, dim int, params map[string]string) (*Builder, error) {
	if metric.Binary() {
		return nil, fmt.Errorf("annoy: binary metric %v not supported", metric)
	}
	b := &Builder{Metric: metric, Dim: dim}
	var err error
	if b.NTrees, err = index.ParamInt(params, "ntrees", 8); err != nil {
		return nil, err
	}
	if b.LeafSize, err = index.ParamInt(params, "leaf", 32); err != nil {
		return nil, err
	}
	seed, err := index.ParamInt(params, "seed", 1)
	if err != nil {
		return nil, err
	}
	b.Seed = int64(seed)
	return b, nil
}

type node struct {
	// Internal node: normal·x ≤ offset goes left.
	normal      []float32
	offset      float32
	left, right int32
	// Leaf: items lists vector positions; normal == nil marks a leaf.
	items []int32
}

// Forest is a built ANNOY index.
type Forest struct {
	metric vec.Metric
	dim    int
	dist   vec.DistFunc
	data   []float32
	ids    []int64
	trees  []int32 // root node index per tree
	nodes  []node
}

// Build grows NTrees random-projection trees.
func (b *Builder) Build(data []float32, ids []int64) (index.Index, error) {
	n, err := index.ValidateBuildInput(data, ids, b.Dim)
	if err != nil {
		return nil, err
	}
	nt := b.NTrees
	if nt <= 0 {
		nt = 8
	}
	leaf := b.LeafSize
	if leaf <= 0 {
		leaf = 32
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	f := &Forest{
		metric: b.Metric,
		dim:    b.Dim,
		dist:   b.Metric.Dist(),
		data:   append([]float32(nil), data...),
		ids:    index.IDsOrDefault(ids, n),
	}
	r := rand.New(rand.NewSource(seed))
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	for t := 0; t < nt; t++ {
		items := append([]int32(nil), all...)
		root := f.grow(items, leaf, r, 0)
		f.trees = append(f.trees, root)
	}
	return f, nil
}

func (f *Forest) vecAt(i int32) []float32 { return f.data[int(i)*f.dim : (int(i)+1)*f.dim] }

const maxDepth = 48

func (f *Forest) grow(items []int32, leaf int, r *rand.Rand, depth int) int32 {
	if len(items) <= leaf || depth >= maxDepth {
		f.nodes = append(f.nodes, node{items: items})
		return int32(len(f.nodes) - 1)
	}
	normal, offset := f.split(items, r)
	var left, right []int32
	for _, it := range items {
		if side(f.vecAt(it), normal, offset) {
			left = append(left, it)
		} else {
			right = append(right, it)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		// Degenerate hyperplane (duplicates): random balanced split.
		r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
		mid := len(items) / 2
		left, right = items[:mid], items[mid:]
	}
	self := int32(len(f.nodes))
	f.nodes = append(f.nodes, node{normal: normal, offset: offset})
	l := f.grow(left, leaf, r, depth+1)
	rr := f.grow(right, leaf, r, depth+1)
	f.nodes[self].left = l
	f.nodes[self].right = rr
	return self
}

// split picks two random points and returns the perpendicular bisector.
func (f *Forest) split(items []int32, r *rand.Rand) ([]float32, float32) {
	a := f.vecAt(items[r.Intn(len(items))])
	b := f.vecAt(items[r.Intn(len(items))])
	normal := make([]float32, f.dim)
	var offset float32
	for j := 0; j < f.dim; j++ {
		normal[j] = a[j] - b[j]
		offset += normal[j] * (a[j] + b[j]) / 2
	}
	return normal, offset
}

func side(v, normal []float32, offset float32) bool {
	return vec.Dot(v, normal) <= offset
}

// margin is the signed distance proxy used to order tree descent.
func margin(v, normal []float32, offset float32) float32 {
	return vec.Dot(v, normal) - offset
}

// Name implements index.Index.
func (f *Forest) Name() string { return "ANNOY" }

// Metric implements index.Index.
func (f *Forest) Metric() vec.Metric { return f.metric }

// Dim implements index.Index.
func (f *Forest) Dim() int { return f.dim }

// Size implements index.Index.
func (f *Forest) Size() int { return len(f.ids) }

// MemoryBytes implements index.Index.
func (f *Forest) MemoryBytes() int64 {
	b := int64(len(f.data))*4 + int64(len(f.ids))*8
	for _, n := range f.nodes {
		b += int64(len(n.normal))*4 + int64(len(n.items))*4 + 12
	}
	return b
}

// Search implements index.Index. The candidate budget is p.Ef when set,
// otherwise ntrees·k·16; candidates from all trees are pooled and re-ranked
// exactly.
func (f *Forest) Search(query []float32, p index.SearchParams) []topk.Result {
	budget := p.Ef
	if budget <= 0 {
		budget = len(f.trees) * p.K * 16
	}
	// Best-first over (negated margin) across all trees.
	pq := &marginQueue{}
	for _, root := range f.trees {
		pq.push(qEntry{node: root, priority: 1e30})
	}
	seen := make(map[int32]struct{}, budget*2)
	var cands []int32
	for pq.len() > 0 && len(cands) < budget {
		e := pq.pop()
		nd := &f.nodes[e.node]
		if nd.normal == nil {
			for _, it := range nd.items {
				if _, dup := seen[it]; dup {
					continue
				}
				seen[it] = struct{}{}
				cands = append(cands, it)
			}
			continue
		}
		m := margin(query, nd.normal, nd.offset)
		// The matching side gets the parent's priority; the far side is
		// penalized by |margin| so close-to-plane splits are revisited first.
		am := m
		if am < 0 {
			am = -am
		}
		near, far := nd.left, nd.right
		if m > 0 {
			near, far = nd.right, nd.left
		}
		pq.push(qEntry{node: near, priority: e.priority})
		pq.push(qEntry{node: far, priority: minf(e.priority, -am)})
	}
	h := topk.New(p.K)
	for _, c := range cands {
		// Item positions are build order, so the pushed bitset gates a
		// candidate before its distance is computed.
		if p.Bits != nil && !p.Bits.Test(int(c)) {
			continue
		}
		h.Push(f.ids[c], f.dist(query, f.vecAt(c)))
	}
	return h.Results()
}

func minf(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

type qEntry struct {
	node     int32
	priority float32 // larger = explore sooner
}

type marginQueue struct{ data []qEntry }

func (q *marginQueue) len() int { return len(q.data) }

func (q *marginQueue) push(e qEntry) {
	q.data = append(q.data, e)
	i := len(q.data) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.data[p].priority >= q.data[i].priority {
			break
		}
		q.data[p], q.data[i] = q.data[i], q.data[p]
		i = p
	}
}

func (q *marginQueue) pop() qEntry {
	top := q.data[0]
	last := len(q.data) - 1
	q.data[0] = q.data[last]
	q.data = q.data[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(q.data) && q.data[l].priority > q.data[big].priority {
			big = l
		}
		if r < len(q.data) && q.data[r].priority > q.data[big].priority {
			big = r
		}
		if big == i {
			break
		}
		q.data[i], q.data[big] = q.data[big], q.data[i]
		i = big
	}
	return top
}
