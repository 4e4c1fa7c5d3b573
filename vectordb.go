// Package vectordb is a purpose-built vector data management system — a
// from-scratch Go reproduction of Milvus (SIGMOD 2021). It stores entities
// described by one or more high-dimensional vectors plus optional numerical
// attributes, and answers vector similarity queries, attribute-filtered
// queries, and multi-vector queries over dynamically changing data.
//
// Architecture (paper Sec. 2): a query engine with cache-aware and
// SIMD-dispatch batch processing, quantization/graph/tree indexes behind an
// extensible registry, a simulated GPU engine with the SQ8H hybrid index, an
// LSM storage engine with snapshot isolation and tiered merging, columnar
// attribute storage with skip pointers, and a shared-storage distributed
// layer. This package is the embedded public API; see client and
// cmd/vectordbd for the RESTful deployment.
//
// Basic usage:
//
//	db := vectordb.Open(nil)
//	col, _ := db.CreateCollection("items", vectordb.Schema{
//		VectorFields: []vectordb.VectorField{{Name: "embedding", Dim: 128, Metric: vectordb.L2}},
//		AttrFields:   []string{"price"},
//	})
//	col.Insert([]vectordb.Entity{{ID: 1, Vectors: [][]float32{v}, Attrs: []int64{42}}})
//	col.Flush()
//	hits, _ := col.Search(q, vectordb.SearchRequest{K: 10})
package vectordb

import (
	"context"
	"time"

	"vectordb/internal/core"
	"vectordb/internal/objstore"
	"vectordb/internal/obs"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Metric names a similarity function (Sec. 2.1).
type Metric string

// Supported similarity metrics. The binary metrics (Hamming, Jaccard,
// Tanimoto) operate on fingerprints bit-packed into float32 words — see
// PackBits/UnpackBits.
const (
	L2       Metric = "L2"       // squared Euclidean distance
	IP       Metric = "IP"       // inner product (higher is more similar)
	Cosine   Metric = "COSINE"   // 1 - cosine similarity
	Hamming  Metric = "HAMMING"  // differing bits of binary fingerprints
	Jaccard  Metric = "JACCARD"  // 1 - |a∧b|/|a∨b| over binary fingerprints
	Tanimoto Metric = "TANIMOTO" // cheminformatics fingerprint distance
)

// PackBits packs a bitset (bit i set ⇔ bits[i] true) into the float32-word
// vector a binary-metric field stores. All entities of a binary field must
// use the same nbits.
func PackBits(bits []bool) []float32 {
	bv := vec.NewBinaryVector(len(bits))
	for i, b := range bits {
		if b {
			bv.SetBit(i)
		}
	}
	return vec.FloatsFromBinary(bv, vec.WordsForBits(len(bits)))
}

// UnpackBits reverses PackBits (to the packed word boundary).
func UnpackBits(words []float32) []bool {
	bv := vec.BinaryFromFloats(words)
	out := make([]bool, len(words)*32)
	for i := range out {
		out[i] = bv.Bit(i)
	}
	return out
}

// BinaryDim returns the Dim to declare for a binary field of nbits bits.
func BinaryDim(nbits int) int { return vec.WordsForBits(nbits) }

func (m Metric) internal() (vec.Metric, error) {
	if m == "" {
		return vec.L2, nil
	}
	return vec.ParseMetric(string(m))
}

// VectorField declares one vector field of an entity.
type VectorField struct {
	Name   string
	Dim    int
	Metric Metric
}

// Schema declares a collection's entity layout.
type Schema struct {
	VectorFields []VectorField
	AttrFields   []string
	// CatFields are categorical (string) attributes, filtered via
	// inverted-list indexes.
	CatFields []string
}

func (s Schema) internal() (core.Schema, error) {
	var out core.Schema
	for _, f := range s.VectorFields {
		m, err := f.Metric.internal()
		if err != nil {
			return out, err
		}
		out.VectorFields = append(out.VectorFields, core.VectorField{Name: f.Name, Dim: f.Dim, Metric: m})
	}
	out.AttrFields = append([]string(nil), s.AttrFields...)
	out.CatFields = append([]string(nil), s.CatFields...)
	return out, out.Validate()
}

// Entity is one row: an ID (unique, client-assigned), one vector per schema
// vector field, and one value per attribute field.
type Entity struct {
	ID      int64
	Vectors [][]float32
	Attrs   []int64
	Cats    []string
}

// Result is one search hit; Distance follows smaller-is-better (inner
// product is negated).
type Result struct {
	ID       int64
	Distance float32
}

func fromTopk(rs []topk.Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID, Distance: r.Distance}
	}
	return out
}

// AttrRange is an attribute-filtering condition Cα: Lo ≤ attr ≤ Hi.
type AttrRange struct {
	Attr   string
	Lo, Hi int64
}

// CatFilter restricts results to entities whose categorical field matches
// ANY of Values (an IN predicate over inverted lists).
type CatFilter struct {
	Attr   string
	Values []string
}

// SearchRequest carries query-time knobs.
type SearchRequest struct {
	Field   string     // vector field; default: first declared field
	K       int        // results to return; required
	Nprobe  int        // IVF buckets probed (accuracy/perf trade-off)
	Ef      int        // HNSW candidate list size
	SearchL int        // RNSG search pool size
	Filter  *AttrRange // optional numerical attribute constraint (Sec. 4.1)
	Cat     *CatFilter // optional categorical constraint (inverted lists)
}

// Options tunes a collection's storage engine; the zero value uses the
// paper's defaults (4096-row memtable flushes plus a 1 s timer, tiered
// merging, async IVF_FLAT index builds on large segments).
type Options struct {
	FlushRows      int
	FlushInterval  time.Duration
	MergeFactor    int
	MaxSegmentRows int
	IndexRows      int
	IndexType      string
	IndexParams    map[string]string
}

func (o Options) internal() core.Config {
	return core.Config{
		FlushRows:      o.FlushRows,
		FlushInterval:  o.FlushInterval,
		MergeFactor:    o.MergeFactor,
		MaxSegmentRows: o.MaxSegmentRows,
		IndexRows:      o.IndexRows,
		IndexType:      o.IndexType,
		IndexParams:    o.IndexParams,
	}
}

// DB is an embedded vectordb instance.
type DB struct {
	inner *core.DB
}

// Open creates an in-memory database. Pass Storage options via OpenPath for
// durable local storage.
func Open(_ *Options) *DB { return &DB{inner: core.NewDB(nil)} }

// OpenPath creates a database whose segments persist under dir.
func OpenPath(dir string) (*DB, error) {
	fs, err := objstore.NewFS(dir)
	if err != nil {
		return nil, err
	}
	return &DB{inner: core.NewDB(fs)}, nil
}

// Close flushes and closes every collection.
func (db *DB) Close() error { return db.inner.Close() }

// Obs returns the database's metric registry: every collection records
// counters, gauges and latency histograms into it, and WritePrometheus
// renders it in Prometheus text exposition format.
func (db *DB) Obs() *obs.Registry { return db.inner.Obs() }

// QueryLog returns the database's query-trace log: recent and slow queries
// with per-stage span breakdowns (the data behind /debug/queries).
func (db *DB) QueryLog() *obs.QueryLog { return db.inner.QueryLog() }

// CreateCollection creates a collection with default options.
func (db *DB) CreateCollection(name string, schema Schema) (*Collection, error) {
	return db.CreateCollectionWithOptions(name, schema, Options{})
}

// CreateCollectionWithOptions creates a collection with explicit storage
// options.
func (db *DB) CreateCollectionWithOptions(name string, schema Schema, opts Options) (*Collection, error) {
	s, err := schema.internal()
	if err != nil {
		return nil, err
	}
	c, err := db.inner.CreateCollection(name, s, opts.internal())
	if err != nil {
		return nil, err
	}
	return &Collection{inner: c}, nil
}

// Collection returns an existing collection.
func (db *DB) Collection(name string) (*Collection, error) {
	c, err := db.inner.Collection(name)
	if err != nil {
		return nil, err
	}
	return &Collection{inner: c}, nil
}

// DropCollection removes a collection and its stored segments.
func (db *DB) DropCollection(name string) error { return db.inner.DropCollection(name) }

// ListCollections returns collection names, sorted.
func (db *DB) ListCollections() []string { return db.inner.ListCollections() }

// Collection is a named set of entities under one schema.
type Collection struct {
	inner *core.Collection
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.inner.Name }

// Insert appends entities asynchronously (Sec. 5.1); call Flush to make
// them queryable.
func (c *Collection) Insert(entities []Entity) error {
	rows := make([]core.Entity, len(entities))
	for i, e := range entities {
		rows[i] = core.Entity{ID: e.ID, Vectors: e.Vectors, Attrs: e.Attrs, Cats: e.Cats}
	}
	return c.inner.Insert(rows)
}

// Delete tombstones entities by ID; vectors are physically removed at the
// next segment merge (Sec. 2.3).
func (c *Collection) Delete(ids []int64) error { return c.inner.Delete(ids) }

// Flush blocks until all pending writes are applied and visible.
func (c *Collection) Flush() error { return c.inner.Flush() }

// Search answers a top-k vector query; with req.Filter or req.Cat set it
// runs the cost-based attribute-filtering pipeline (Sec. 4.1), and with
// both set a row must match both.
func (c *Collection) Search(query []float32, req SearchRequest) ([]Result, error) {
	pred, err := c.inner.Schema().Filter((*core.RangeFilter)(req.Filter), (*core.InFilter)(req.Cat))
	if err != nil {
		return nil, err
	}
	return c.query(core.Request{Vector: query, Pred: pred, SearchOptions: core.SearchOptions{Field: req.Field, K: req.K, Nprobe: req.Nprobe, Ef: req.Ef, SearchL: req.SearchL}})
}

// SearchMulti answers a multi-vector query: top-k entities by the weighted
// sum aggregation over per-field similarities (Sec. 4.2). It uses vector
// fusion when the metric is decomposable and iterative merging otherwise.
func (c *Collection) SearchMulti(queries [][]float32, weights []float32, k int) ([]Result, error) {
	return c.query(core.Request{Fields: queries, Weights: weights, SearchOptions: core.SearchOptions{K: k}})
}

// query runs q under a background context: the embedded API takes none.
func (c *Collection) query(q core.Request) ([]Result, error) {
	res, err := c.inner.Query(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return fromTopk(res.Hits), nil
}

// BuildIndex builds an index of the named type ("FLAT", "IVF_FLAT",
// "IVF_SQ8", "IVF_PQ", "HNSW", "RNSG", "ANNOY") on a vector field across
// all current segments.
func (c *Collection) BuildIndex(field, indexType string, params map[string]string) error {
	return c.inner.BuildIndex(field, indexType, params)
}

// Get fetches a visible entity by ID.
func (c *Collection) Get(id int64) (Entity, bool) {
	e, ok := c.inner.Get(id)
	if !ok {
		return Entity{}, false
	}
	return Entity{ID: e.ID, Vectors: e.Vectors, Attrs: e.Attrs, Cats: e.Cats}, true
}

// Count returns the number of visible entities.
func (c *Collection) Count() int { return c.inner.Count() }

// Stats summarizes the collection's physical state.
type Stats struct {
	Segments    int
	TotalRows   int
	LiveRows    int
	Tombstones  int
	SegmentRows []int
}

// Stats returns current physical statistics.
func (c *Collection) Stats() Stats {
	st := c.inner.Stats()
	return Stats{
		Segments:    st.Segments,
		TotalRows:   st.TotalRows,
		LiveRows:    st.LiveRows,
		Tombstones:  st.Tombstones,
		SegmentRows: st.SegmentRows,
	}
}

// WaitIndexed blocks until background index builds drain.
func (c *Collection) WaitIndexed() { c.inner.WaitIndexed() }

// Close flushes and stops the collection's background workers.
func (c *Collection) Close() error { return c.inner.Close() }

// Version is the library version.
const Version = "1.0.0"

// IndexTypes lists the built-in index types.
func IndexTypes() []string {
	return []string{"ANNOY", "FLAT", "HNSW", "IVF_FLAT", "IVF_PQ", "IVF_SQ8", "RNSG"}
}
