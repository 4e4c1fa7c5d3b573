package colstore

import "fmt"

// VectorColumn stores one vector field for all rows of a segment,
// contiguously in row-ID order (single-vector layout of Sec. 2.4: row IDs
// are implicit — "Milvus stores all the vectors continuously without
// explicitly storing the row IDs").
type VectorColumn struct {
	Dim  int
	Data []float32 // rows*Dim
}

// NewVectorColumn wraps flat data; it panics on ragged input (programming
// error).
func NewVectorColumn(dim int, data []float32) *VectorColumn {
	if dim <= 0 || len(data)%dim != 0 {
		panic(fmt.Sprintf("colstore: ragged vector column: len %d dim %d", len(data), dim))
	}
	return &VectorColumn{Dim: dim, Data: data}
}

// Rows returns the number of vectors.
func (v *VectorColumn) Rows() int { return len(v.Data) / v.Dim }

// Row returns vector i ("given a row ID, Milvus can directly access the
// corresponding vector since each vector is of the same length").
func (v *VectorColumn) Row(i int) []float32 { return v.Data[i*v.Dim : (i+1)*v.Dim] }
