// Package core implements the single-node vector data management engine —
// the paper's primary contribution assembled from the substrate packages:
// LSM-based dynamic data management with snapshot isolation (Sec. 2.3, 5.2),
// columnar entity storage (Sec. 2.4), asynchronous write-ahead logging
// (Sec. 5.1), per-segment vector indexes with asynchronous builds
// (Sec. 2.2/2.3), and the segment-granular search path that the advanced
// query processing of Sec. 4 runs on.
package core

import (
	"fmt"
	"math"
	"slices"
	"unicode/utf8"

	"vectordb/internal/colstore"
	"vectordb/internal/vec"
	"vectordb/internal/wal"
)

// VectorField declares one vector field of an entity (entities may carry
// multiple vectors, Sec. 2.1).
type VectorField struct {
	Name   string
	Dim    int
	Metric vec.Metric
}

// Schema declares a collection's entity layout: one or more vector fields,
// optional numerical attributes, and optional categorical (string)
// attributes indexed with inverted lists (the Sec. 2.1 extension).
type Schema struct {
	VectorFields []VectorField
	AttrFields   []string
	CatFields    []string
}

// Validate checks structural invariants.
func (s *Schema) Validate() error {
	if len(s.VectorFields) == 0 {
		return fmt.Errorf("core: schema needs at least one vector field")
	}
	seen := map[string]bool{}
	for _, f := range s.VectorFields {
		if f.Name == "" {
			return fmt.Errorf("core: vector field with empty name")
		}
		if f.Dim <= 0 {
			return fmt.Errorf("core: vector field %q has dim %d", f.Name, f.Dim)
		}
		if seen[f.Name] {
			return fmt.Errorf("core: duplicate field name %q", f.Name)
		}
		seen[f.Name] = true
	}
	for _, a := range s.AttrFields {
		if a == "" {
			return fmt.Errorf("core: attribute field with empty name")
		}
		if seen[a] {
			return fmt.Errorf("core: duplicate field name %q", a)
		}
		seen[a] = true
	}
	for _, c := range s.CatFields {
		if c == "" {
			return fmt.Errorf("core: categorical field with empty name")
		}
		if seen[c] {
			return fmt.Errorf("core: duplicate field name %q", c)
		}
		seen[c] = true
	}
	return nil
}

// CatFieldIndex resolves a categorical field name to its position.
func (s *Schema) CatFieldIndex(name string) (int, error) {
	for i, c := range s.CatFields {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: unknown categorical field %q", name)
}

// VectorFieldIndex resolves a vector field name to its position.
func (s *Schema) VectorFieldIndex(name string) (int, error) {
	for i, f := range s.VectorFields {
		if f.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: unknown vector field %q", name)
}

// CheckVector checks a query vector against vector field f: the field's
// dimension and, in a float field, no NaN or ±Inf. A binary field's words
// are bit patterns, any of which may read as a NaN, so they are not judged
// as floats. Every search's query vectors are judged here, as CheckBatch
// judges an insert's.
func (s *Schema) CheckVector(f int, v []float32) error {
	vf := &s.VectorFields[f]
	if len(v) != vf.Dim {
		return fmt.Errorf("core: query dim %d, field %q wants %d", len(v), vf.Name, vf.Dim)
	}
	if !vf.Metric.Binary() && slices.IndexFunc(v, nonFinite) >= 0 {
		return fmt.Errorf("core: query for field %q holds a NaN or ±Inf", vf.Name)
	}
	return nil
}

// nonFinite reports whether x is a NaN or ±Inf.
func nonFinite(x float32) bool { return math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) }

// AttrFieldIndex resolves an attribute field name to its position.
func (s *Schema) AttrFieldIndex(name string) (int, error) {
	for i, a := range s.AttrFields {
		if a == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: unknown attribute field %q", name)
}

// RangePred is lo ≤ attr ≤ hi on the numeric attribute named attr, as a
// Request's Pred.
func (s *Schema) RangePred(attr string, lo, hi int64) (colstore.Pred, error) {
	i, err := s.AttrFieldIndex(attr)
	if err != nil {
		return nil, err
	}
	return colstore.RangePred{Attr: i, Lo: lo, Hi: hi}, nil
}

// InPred is cat IN values on the categorical field named cat, as a
// Request's Pred.
func (s *Schema) InPred(cat string, values []string) (colstore.Pred, error) {
	i, err := s.CatFieldIndex(cat)
	if err != nil {
		return nil, err
	}
	return colstore.InPred{Cat: i, Values: values}, nil
}

// RangeFilter is lo ≤ attr ≤ hi on the numeric attribute named Attr.
type RangeFilter struct {
	Attr   string
	Lo, Hi int64
}

// InFilter is attr IN Values on the categorical field named Attr.
type InFilter struct {
	Attr   string
	Values []string
}

// Filter resolves a search's optional range and IN terms into its Request's
// Pred: nil when neither is set, the one leaf when one is, and their
// AndPred when both are.
func (s *Schema) Filter(rng *RangeFilter, in *InFilter) (colstore.Pred, error) {
	var preds []colstore.Pred
	if rng != nil {
		p, err := s.RangePred(rng.Attr, rng.Lo, rng.Hi)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	if in != nil {
		p, err := s.InPred(in.Attr, in.Values)
		if err != nil {
			return nil, err
		}
		preds = append(preds, p)
	}
	switch len(preds) {
	case 0:
		return nil, nil
	case 1:
		return preds[0], nil
	}
	return colstore.AndPred{Preds: preds}, nil
}

// Entity is one row: an ID, one vector per schema vector field, and one
// value per schema attribute field.
type Entity struct {
	ID      int64
	Vectors [][]float32
	Attrs   []int64
	Cats    []string
}

// Columns copies rows into a fresh insert batch, one column per field.
// Every row must have the first row's shape: as many vectors, each of the
// same dimension, attributes and categorical values.
func Columns(rows []Entity) (*wal.Batch, error) {
	b := &wal.Batch{Kind: wal.Insert, IDs: make([]int64, len(rows))}
	if len(rows) == 0 {
		return b, nil
	}
	first := &rows[0]
	for _, v := range first.Vectors {
		b.Vectors = append(b.Vectors, make([]float32, 0, len(rows)*len(v)))
	}
	b.Attrs, b.Cats = make([][]int64, len(first.Attrs)), make([][]string, len(first.Cats))
	for i := range rows {
		e := &rows[i]
		if len(e.Vectors) != len(b.Vectors) || len(e.Attrs) != len(b.Attrs) || len(e.Cats) != len(b.Cats) {
			return nil, fmt.Errorf("core: entity %d has %d vectors, %d attrs and %d categorical values; entity %d has %d, %d and %d",
				e.ID, len(e.Vectors), len(e.Attrs), len(e.Cats), first.ID, len(b.Vectors), len(b.Attrs), len(b.Cats))
		}
		b.IDs[i] = e.ID
		for f, v := range e.Vectors {
			if len(v) != len(first.Vectors[f]) {
				return nil, fmt.Errorf("core: entity %d vector %d: dim %d; entity %d's is %d", e.ID, f, len(v), first.ID, len(first.Vectors[f]))
			}
			b.Vectors[f] = append(b.Vectors[f], v...)
		}
		for a, x := range e.Attrs {
			b.Attrs[a] = append(b.Attrs[a], x)
		}
		for c, x := range e.Cats {
			b.Cats[c] = append(b.Cats[c], x)
		}
	}
	return b, nil
}

// CheckBatch checks an insert batch against the schema: one column per
// field, each one value (or one vector of the field's dimension) per row,
// no NaN or ±Inf in a float field (a binary field's words are bit
// patterns, carried as they are) and UTF-8 categories. A single node and a
// cluster writer refuse alike, and the wire carries whatever this accepts.
// An empty batch holds no column and always passes. A shape error names
// the batch's first entity, a value error the first entity holding one.
func (s *Schema) CheckBatch(b *wal.Batch) error {
	n := b.Rows()
	if n == 0 {
		return nil
	}
	id := b.IDs[0]
	if len(b.Vectors) != len(s.VectorFields) {
		return fmt.Errorf("core: entity %d has %d vectors, schema wants %d", id, len(b.Vectors), len(s.VectorFields))
	}
	for f, vf := range s.VectorFields {
		if len(b.Vectors[f]) != n*vf.Dim {
			return fmt.Errorf("core: entity %d field %q: dim %d, want %d", id, vf.Name, len(b.Vectors[f])/n, vf.Dim)
		}
	}
	if len(b.Attrs) != len(s.AttrFields) {
		return fmt.Errorf("core: entity %d has %d attrs, schema wants %d", id, len(b.Attrs), len(s.AttrFields))
	}
	if len(b.Cats) != len(s.CatFields) {
		return fmt.Errorf("core: entity %d has %d categorical values, schema wants %d", id, len(b.Cats), len(s.CatFields))
	}
	for _, col := range b.Attrs {
		if len(col) != n {
			return fmt.Errorf("core: an attribute column holds %d values for %d rows", len(col), n)
		}
	}
	for _, col := range b.Cats {
		if len(col) != n {
			return fmt.Errorf("core: a categorical column holds %d values for %d rows", len(col), n)
		}
	}
	bad, field := n, "" // the first row holding a NaN or ±Inf, and its field
	for f, vf := range s.VectorFields {
		if vf.Metric.Binary() {
			continue
		}
		if i := slices.IndexFunc(b.Vectors[f][:bad*vf.Dim], nonFinite); i >= 0 {
			bad, field = i/vf.Dim, vf.Name
		}
	}
	if bad < n {
		return fmt.Errorf("core: entity %d field %q: NaN or ±Inf", b.IDs[bad], field)
	}
	for c, col := range b.Cats {
		if i := slices.IndexFunc(col, func(v string) bool { return !utf8.ValidString(v) }); i >= 0 {
			return fmt.Errorf("core: entity %d categorical field %q: invalid UTF-8", b.IDs[i], s.CatFields[c])
		}
	}
	return nil
}
