// Package index defines vectordb's extensible vector-index framework
// (Sec. 2.2): a small Index/Builder interface pair plus a registry, so that
// "developers only need to implement a few pre-defined interfaces for adding
// a new index". Concrete indexes live in subpackages (flat, ivf, hnsw, nsg,
// annoy, sq8h) and register themselves at init time; importing
// vectordb/internal/index/all pulls in the complete set.
package index

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"vectordb/internal/bitset"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// SearchParams carries per-query knobs. Zero values mean "index default".
type SearchParams struct {
	K       int // number of results; required
	Nprobe  int // IVF family: buckets to probe (accuracy/perf trade-off, Sec. 3.1)
	Ef      int // HNSW: candidate list size
	SearchL int // NSG: search pool size
	// Bits, when non-nil, is the query's one filter: a dense bitset over the
	// index's build-order row positions (bit i = i'th vector handed to
	// Build) with a bit set for every row the query may return — attribute
	// predicates and snapshot visibility (tombstones) arrive already folded
	// into it. Scan-based indexes push it beneath the batch kernels so
	// excluded rows never reach a distance computation; graph indexes
	// (HNSW, NSG) switch to filtered traversal — skip-but-expand — so
	// connectivity survives low selectivity. This is the bitmap of
	// attribute-filtering strategy B (Sec. 4.1).
	Bits *bitset.Bitset
}

// Index is a built, immutable vector index over one segment's vectors.
type Index interface {
	// Name is the registry name, e.g. "IVF_FLAT".
	Name() string
	// Metric is the similarity function the index was built for.
	Metric() vec.Metric
	// Dim is the vector dimensionality.
	Dim() int
	// Size is the number of indexed vectors.
	Size() int
	// MemoryBytes approximates the index's resident size, used by the
	// bufferpool and by the SPTAG-memory comparison in Sec. 7.2.
	MemoryBytes() int64
	// Search returns the top-k most similar vectors to query, smaller
	// distance first.
	Search(query []float32, p SearchParams) []topk.Result
}

// Builder constructs an Index from a segment's vectors. ids[i] is the
// external row ID of data row i; if ids is nil, row positions are used.
type Builder interface {
	Build(data []float32, ids []int64) (Index, error)
}

// Factory creates a Builder for a metric/dim pair with string parameters
// (index-specific, e.g. "nlist" for IVF, "m" for HNSW).
type Factory func(metric vec.Metric, dim int, params map[string]string) (Builder, error)

// Marshaler is implemented by indexes that can be persisted alongside their
// segment ("both index and data are stored in the same segment", Sec. 2.3),
// so readers load prebuilt indexes from shared storage instead of
// rebuilding.
type Marshaler interface {
	MarshalIndex() ([]byte, error)
}

// Unmarshaler reconstructs a persisted index of one registered type.
type Unmarshaler func(metric vec.Metric, dim int, data []byte) (Index, error)

var (
	regMu        sync.RWMutex
	registry     = map[string]Factory{}
	unmarshalers = map[string]Unmarshaler{}
)

// Register makes an index type available under name. It panics on duplicate
// registration, following database/sql convention.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("index: duplicate registration of " + name)
	}
	registry[name] = f
}

// RegisterUnmarshaler makes a persisted index type loadable under name.
func RegisterUnmarshaler(name string, u Unmarshaler) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := unmarshalers[name]; dup {
		panic("index: duplicate unmarshaler registration of " + name)
	}
	unmarshalers[name] = u
}

// Unmarshal reconstructs a persisted index. name must match the type that
// produced the blob via MarshalIndex.
func Unmarshal(name string, metric vec.Metric, dim int, data []byte) (Index, error) {
	regMu.RLock()
	u, ok := unmarshalers[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("index: type %q does not support persistence", name)
	}
	if dim <= 0 {
		return nil, fmt.Errorf("index: dim must be positive, got %d", dim)
	}
	return u(metric, dim, data)
}

// NewBuilder instantiates a Builder for the named index type.
func NewBuilder(name string, metric vec.Metric, dim int, params map[string]string) (Builder, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("index: unknown index type %q (registered: %v)", name, Names())
	}
	if dim <= 0 {
		return nil, fmt.Errorf("index: dim must be positive, got %d", dim)
	}
	return f(metric, dim, params)
}

// Names lists registered index types, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParamInt parses an integer parameter with a default.
func ParamInt(params map[string]string, key string, def int) (int, error) {
	s, ok := params[key]
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("index: parameter %q: %w", key, err)
	}
	return v, nil
}

// ValidateBuildInput performs the shared sanity checks every Builder needs.
func ValidateBuildInput(data []float32, ids []int64, dim int) (n int, err error) {
	if dim <= 0 {
		return 0, fmt.Errorf("index: dim must be positive, got %d", dim)
	}
	if len(data)%dim != 0 {
		return 0, fmt.Errorf("index: data length %d not a multiple of dim %d", len(data), dim)
	}
	n = len(data) / dim
	if n == 0 {
		return 0, fmt.Errorf("index: no vectors to index")
	}
	if ids != nil && len(ids) != n {
		return 0, fmt.Errorf("index: got %d ids for %d vectors", len(ids), n)
	}
	return n, nil
}

// IDsOrDefault returns ids, or the identity mapping when nil.
func IDsOrDefault(ids []int64, n int) []int64 {
	if ids != nil {
		return ids
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// SearchBatch runs Search for each of the nq queries packed in queries.
// Indexes with a native batch path may shadow this helper.
func SearchBatch(idx Index, queries []float32, p SearchParams) [][]topk.Result {
	dim := idx.Dim()
	nq := len(queries) / dim
	out := make([][]topk.Result, nq)
	for i := 0; i < nq; i++ {
		out[i] = idx.Search(queries[i*dim:(i+1)*dim], p)
	}
	return out
}
