package query

import (
	"fmt"
	"sort"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/index/flat"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Table is a self-contained in-memory Source: one vector field, any number
// of attributes, an optional vector index. The experiment harness (Figs. 14
// and 15) and strategy E's partitions are built from Tables; the same
// algorithms also run over LSM collections through the core adapter.
type Table struct {
	dim    int
	metric vec.Metric
	data   []float32
	ids    []int64
	pos    map[int64]int32
	attrs  [][]int64 // raw, row-aligned
	cols   []*colstore.AttributeColumn
	idx    index.Index
}

var _ Partition = (*Table)(nil)

// NewTable builds a table over flat row-major vectors. attrs[a][i] is
// attribute a of row i; ids nil means positions.
func NewTable(metric vec.Metric, dim int, data []float32, ids []int64, attrs [][]int64) (*Table, error) {
	n, err := index.ValidateBuildInput(data, ids, dim)
	if err != nil {
		return nil, err
	}
	ids = index.IDsOrDefault(ids, n)
	t := &Table{dim: dim, metric: metric, data: data, ids: ids, attrs: attrs}
	t.pos = make(map[int64]int32, n)
	for i, id := range ids {
		t.pos[id] = int32(i)
	}
	for a, raw := range attrs {
		if len(raw) != n {
			return nil, fmt.Errorf("query: attr %d has %d values for %d rows", a, len(raw), n)
		}
		t.cols = append(t.cols, colstore.BuildAttributeColumn(raw, ids))
	}
	// Default index: exact scan.
	fi, err := flat.NewBuilder(metric, dim).Build(data, ids)
	if err != nil {
		return nil, err
	}
	t.idx = fi
	return t, nil
}

// BuildIndex replaces the table's vector index.
func (t *Table) BuildIndex(indexType string, params map[string]string) error {
	b, err := index.NewBuilder(indexType, t.metric, t.dim, params)
	if err != nil {
		return err
	}
	idx, err := b.Build(t.data, t.ids)
	if err != nil {
		return err
	}
	t.idx = idx
	return nil
}

// Index returns the current vector index.
func (t *Table) Index() index.Index { return t.idx }

// TotalRows implements Source.
func (t *Table) TotalRows() int { return len(t.ids) }

// CountRange implements Source.
func (t *Table) CountRange(attr int, lo, hi int64) int { return t.cols[attr].CountRange(lo, hi) }

// RangeRows implements Source.
func (t *Table) RangeRows(attr int, lo, hi int64) []int64 { return t.cols[attr].RangeRows(lo, hi) }

// AttrValue implements Source.
func (t *Table) AttrValue(attr int, id int64) (int64, bool) {
	p, ok := t.pos[id]
	if !ok {
		return 0, false
	}
	return t.attrs[attr][p], true
}

// VectorQuery implements Source.
func (t *Table) VectorQuery(field int, q []float32, k, nprobe int) []topk.Result {
	if nprobe <= 0 {
		nprobe = t.EffectiveNprobe(k)
	}
	return t.idx.Search(q, index.SearchParams{K: k, Nprobe: nprobe})
}

// graphIndex reports whether an index applies pushed bitsets by filtered
// traversal rather than by scan pushdown (the filter_mode=graph regime).
func graphIndex(idx index.Index) bool {
	switch idx.Name() {
	case "HNSW", "RNSG":
		return true
	}
	return false
}

// pushedMode names how idx will evaluate a filter of the given selectivity.
func pushedMode(idx index.Index, selectivity float64) string {
	if graphIndex(idx) {
		return "graph"
	}
	return index.FilterModeName(selectivity)
}

// CompileRange implements Source: the attribute constraint becomes
// one pooled bitset over build positions, filled by the column itself
// (colstore.AttributeColumn.FillRange — the same compile every segment
// runs).
func (t *Table) CompileRange(attr int, lo, hi int64) (*PushedFilter, bool) {
	if attr < 0 || attr >= len(t.cols) {
		return nil, false
	}
	n := len(t.ids)
	bits := bitset.Get(n)
	matched := t.cols[attr].FillRange(lo, hi, bits)
	sel := 0.0
	if n > 0 {
		sel = float64(matched) / float64(n)
	}
	return NewPushedFilter(matched, n, pushedMode(t.idx, sel), bits, func() { bitset.Put(bits) }), true
}

// VectorQueryPushed implements Source.
func (t *Table) VectorQueryPushed(field int, q []float32, k, nprobe int, pf *PushedFilter) []topk.Result {
	bits, ok := pf.Handle().(*bitset.Bitset)
	if !ok {
		return t.VectorQuery(field, q, k, nprobe)
	}
	if nprobe <= 0 {
		nprobe = t.EffectiveNprobe(k)
	}
	p := index.SearchParams{K: k, Nprobe: nprobe, Bits: bits}
	if graphIndex(t.idx) && pf.Matched > 0 && pf.Total > 0 {
		// Filtered graph traversal visits ~1/selectivity nodes per survivor:
		// widen the beam so the pool still holds enough qualifying
		// candidates (skip-but-expand keeps navigating through filtered-out
		// nodes, but only survivors occupy result slots).
		boost := 4 * k * pf.Total / pf.Matched
		if boost > pf.Total {
			boost = pf.Total
		}
		if boost > 64 {
			p.Ef, p.SearchL = boost, boost
		}
	}
	return t.idx.Search(q, p)
}

// EffectiveNprobe returns the probe count a top-k query structurally needs
// on an IVF index: at least enough buckets to hold ~1.3·k candidates —
// retrieving deep result lists is intrinsically more expensive, which is
// what makes bounded-NRA baselines slow (Sec. 4.2).
func (t *Table) EffectiveNprobe(k int) int {
	type nlister interface{ Nlist() int }
	nl, ok := t.idx.(nlister)
	if !ok {
		return 0
	}
	nlist := nl.Nlist()
	n := len(t.ids)
	if n == 0 || nlist == 0 {
		return 0
	}
	avg := n / nlist
	if avg < 1 {
		avg = 1
	}
	need := (13*k/10 + avg - 1) / avg
	min := nlist / 16
	if min < 1 {
		min = 1
	}
	if need < min {
		need = min
	}
	if need > nlist {
		need = nlist
	}
	return need
}

// DistanceByID implements Source.
func (t *Table) DistanceByID(field int, q []float32, id int64) (float32, bool) {
	p, ok := t.pos[id]
	if !ok {
		return 0, false
	}
	return t.metric.Dist()(q, t.data[int(p)*t.dim:(int(p)+1)*t.dim]), true
}

// AttrBounds implements Partition.
func (t *Table) AttrBounds(attr int) (int64, int64, bool) { return t.cols[attr].MinMax() }

// PartitionByAttr splits the table into ρ partitions of near-equal row
// counts along attribute attr (offline partitioning on the hot attribute,
// Sec. 4.1 strategy E; the paper recommends ρ such that each partition
// holds ≈1M vectors). Each partition is an independent Table whose vector
// index is built with the given type/params.
func (t *Table) PartitionByAttr(attr, rho int, indexType string, params map[string]string) ([]*Table, error) {
	if rho <= 0 {
		return nil, fmt.Errorf("query: rho must be positive, got %d", rho)
	}
	n := len(t.ids)
	if rho > n {
		rho = n
	}
	// Order rows by the attribute, then cut into ρ equal-count ranges.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.attrs[attr][order[a]] < t.attrs[attr][order[b]] })

	var parts []*Table
	per := (n + rho - 1) / rho
	for start := 0; start < n; {
		end := start + per
		if end > n {
			end = n
		}
		// Extend the cut so equal attribute values never straddle partitions
		// (ranges must be disjoint for covered-partition pruning to hold).
		for end < n && t.attrs[attr][order[end]] == t.attrs[attr][order[end-1]] {
			end++
		}
		rows := order[start:end]
		data := make([]float32, 0, len(rows)*t.dim)
		ids := make([]int64, 0, len(rows))
		attrs := make([][]int64, len(t.attrs))
		for _, r := range rows {
			data = append(data, t.data[r*t.dim:(r+1)*t.dim]...)
			ids = append(ids, t.ids[r])
			for a := range t.attrs {
				attrs[a] = append(attrs[a], t.attrs[a][r])
			}
		}
		pt, err := NewTable(t.metric, t.dim, data, ids, attrs)
		if err != nil {
			return nil, err
		}
		if indexType != "" && indexType != "FLAT" {
			if err := pt.BuildIndex(indexType, params); err != nil {
				return nil, err
			}
		}
		parts = append(parts, pt)
		start = end
	}
	return parts, nil
}

// Partitions converts tables to the Partition interface slice StrategyE
// consumes.
func Partitions(tables []*Table) []Partition {
	out := make([]Partition, len(tables))
	for i, t := range tables {
		out[i] = t
	}
	return out
}
