// Package flat implements FLAT, the exact brute-force index: no structure,
// every query scans every vector. It is the accuracy reference for every
// other index and the segment-level fallback for small unindexed segments
// (the paper builds indexes only for large segments, Sec. 2.3).
package flat

import (
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

func init() {
	index.Register("FLAT", func(metric vec.Metric, dim int, params map[string]string) (index.Builder, error) {
		return &Builder{metric: metric, dim: dim}, nil
	})
}

// Builder builds Flat indexes.
type Builder struct {
	metric vec.Metric
	dim    int
}

// NewBuilder returns a FLAT builder without going through the registry.
func NewBuilder(metric vec.Metric, dim int) *Builder {
	return &Builder{metric: metric, dim: dim}
}

// Build retains (a copy of) the vectors for exact search.
func (b *Builder) Build(data []float32, ids []int64) (index.Index, error) {
	n, err := index.ValidateBuildInput(data, ids, b.dim)
	if err != nil {
		return nil, err
	}
	cp := make([]float32, len(data))
	copy(cp, data)
	return &Flat{
		metric: b.metric,
		dim:    b.dim,
		data:   cp,
		ids:    index.IDsOrDefault(ids, n),
		dist:   b.metric.Dist(),
	}, nil
}

// Flat is the built exact index.
type Flat struct {
	metric vec.Metric
	dim    int
	data   []float32
	ids    []int64
	dist   vec.DistFunc
}

// Name implements index.Index.
func (f *Flat) Name() string { return "FLAT" }

// Metric implements index.Index.
func (f *Flat) Metric() vec.Metric { return f.metric }

// Dim implements index.Index.
func (f *Flat) Dim() int { return f.dim }

// Size implements index.Index.
func (f *Flat) Size() int { return len(f.ids) }

// MemoryBytes implements index.Index.
func (f *Flat) MemoryBytes() int64 { return int64(len(f.data))*4 + int64(len(f.ids))*8 }

// Search implements index.Index by exhaustive scan through the blocked
// batch kernels. A pushed bitset (p.Bits, positions = row order) stays on
// the batch kernels via run extraction or gathering; only non-batchable
// metrics take the pairwise fallback inside ScanBlocked.
func (f *Flat) Search(query []float32, p index.SearchParams) []topk.Result {
	h := topk.GetHeap(p.K)
	f.SearchInto(h, query, p)
	out := h.Results()
	topk.PutHeap(h)
	return out
}

// SearchInto is Search pushing into a caller-owned heap, whose worst
// distance gates the scan from its first row. A resident scan cannot fail.
func (f *Flat) SearchInto(h *topk.Heap, query []float32, p index.SearchParams) error {
	index.ScanBlocked(h, f.metric, query, f.data, f.dim, f.ids, index.Selection{Bits: p.Bits})
	return nil
}
