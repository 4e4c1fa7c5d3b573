package query

import (
	"fmt"

	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// MultiTable is an in-memory MultiSource: one Table per vector field over a
// shared ID space (the column-grouped multi-vector layout of Sec. 2.4).
type MultiTable struct {
	tables []*Table
}

// NewMultiTable builds a MultiSource from per-field flat matrices.
func NewMultiTable(metric vec.Metric, dims []int, fields [][]float32, ids []int64) (*MultiTable, error) {
	if len(dims) != len(fields) || len(dims) == 0 {
		return nil, fmt.Errorf("query: %d dims for %d fields", len(dims), len(fields))
	}
	m := &MultiTable{}
	for f := range fields {
		t, err := NewTable(metric, dims[f], fields[f], ids, nil)
		if err != nil {
			return nil, fmt.Errorf("query: field %d: %w", f, err)
		}
		m.tables = append(m.tables, t)
	}
	rows := m.tables[0].TotalRows()
	for f, t := range m.tables {
		if t.TotalRows() != rows {
			return nil, fmt.Errorf("query: field %d has %d rows, want %d", f, t.TotalRows(), rows)
		}
	}
	return m, nil
}

// BuildIndex builds the same index type on every field.
func (m *MultiTable) BuildIndex(indexType string, params map[string]string) error {
	for f, t := range m.tables {
		if err := t.BuildIndex(indexType, params); err != nil {
			return fmt.Errorf("query: field %d: %w", f, err)
		}
	}
	return nil
}

// Fields implements MultiSource.
func (m *MultiTable) Fields() int { return len(m.tables) }

// FieldQuery implements MultiSource.
func (m *MultiTable) FieldQuery(field int, q []float32, k int) []topk.Result {
	return m.tables[field].VectorQuery(0, q, k, 0)
}

// FieldDistance implements MultiSource.
func (m *MultiTable) FieldDistance(field int, q []float32, id int64) (float32, bool) {
	return m.tables[field].DistanceByID(0, q, id)
}

// GroundTruth computes the exact aggregated top-k by exhaustive scan — the
// reference for multi-vector recall in Fig. 16.
func (m *MultiTable) GroundTruth(queries [][]float32, weights []float32, k int) []topk.Result {
	weights = topk.UnitWeights(weights, m.Fields())
	h := topk.New(k)
	t0 := m.tables[0]
	for _, id := range t0.ids {
		var s float32
		ok := true
		for f, t := range m.tables {
			d, found := t.DistanceByID(0, queries[f], id)
			if !found {
				ok = false
				break
			}
			s += weights[f] * d
		}
		if ok {
			h.Push(id, s)
		}
	}
	return h.Results()
}
