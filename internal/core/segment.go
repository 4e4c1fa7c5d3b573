package core

import (
	"fmt"
	"slices"
	"sync"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/topk"
)

// Segment is an immutable on-disk/in-memory unit of data — "the basic unit
// of searching, scheduling, and buffering" (Sec. 2.3). Both data and any
// built index live in the segment. Data never changes after creation;
// building an index produces a new Version of the same segment (Sec. 5.2).
type Segment struct {
	ID      int64
	Version int
	IDs     []int64
	Vectors []*colstore.VectorColumn // one per schema vector field
	// RawAttrs[i][r] is attribute field i of row r (aligned with IDs);
	// Attrs[i] is the same data sorted by value with skip pointers
	// (Sec. 2.4). RawAttrs answers by-ID lookups, Attrs answers ranges.
	RawAttrs [][]int64
	Attrs    []*colstore.AttributeColumn
	// RawCats/Cats are the categorical analogues: row-aligned string values
	// plus per-value inverted lists (the Sec. 2.1 extension).
	RawCats [][]string
	Cats    []*colstore.CategoricalColumn

	idPosOnce sync.Once
	idPos     map[int64]int32

	indexMu sync.RWMutex
	indexes []index.Index // per vector field; nil = unindexed (brute scan)
	fused   index.Index   // optional index over concatenated vector fields

	// tier, when set, is the out-of-core residency state machine: the
	// vector payloads live in an mmap-backed extent file (and the segment's
	// object in the store) instead of Vectors[f].Data, and every read goes
	// through the vectorSource/vectorData/vectorRows accessors. Nil = hot
	// (all-RAM).
	tier *segTier

	// tierIdx maps vector field → the externalized IVF payload tier (the
	// index's build-order fine payload in its own extent file). Destroyed
	// with the segment.
	tierIdxMu sync.Mutex
	tierIdx   map[int]*segTier
}

// Rows returns the segment's row count.
func (s *Segment) Rows() int { return len(s.IDs) }

// SizeBytes approximates the segment's memory footprint (data only).
func (s *Segment) SizeBytes() int64 {
	var b int64 = int64(len(s.IDs)) * 8
	for _, v := range s.Vectors {
		b += int64(len(v.Data)) * 4
	}
	for _, a := range s.Attrs {
		b += int64(a.Len()) * 16
	}
	return b
}

func (s *Segment) posOf(id int64) (int32, bool) {
	s.idPosOnce.Do(func() {
		s.idPos = make(map[int64]int32, len(s.IDs))
		for i, rid := range s.IDs {
			s.idPos[rid] = int32(i)
		}
	})
	p, ok := s.idPos[id]
	return p, ok
}

// hideRow applies the sequence-scoped tombstone (id, seq) to this segment's
// visibility bitset: when the tombstone covers the segment and the row is
// here, its build position is cleared in *vis, which starts all-ones on the
// first hidden row. It reports whether a row was hidden.
func (s *Segment) hideRow(vis **bitset.Bitset, id, seq int64) bool {
	if s.ID > seq {
		return false
	}
	p, ok := s.posOf(id)
	if !ok {
		return false
	}
	if *vis == nil {
		*vis = bitset.New(s.Rows())
		(*vis).SetAll()
	}
	(*vis).Clear(int(p))
	return true
}

// Visibility resolves tombstones in Snapshot.Deleted form against this one
// segment, as newSnapshot does for a collection's: a fresh bitset over build
// positions with the hidden rows' bits clear, nil when none is hidden. The
// cluster readers resolve a manifest's tombstones with it.
func (s *Segment) Visibility(deleted map[int64]int64) *bitset.Bitset {
	var vis *bitset.Bitset
	for id, seq := range deleted {
		s.hideRow(&vis, id, seq)
	}
	return vis
}

// VectorByID returns the field vector of an entity, if present. Tiered
// segments return a copy (the backing mapping is only pinned for the
// lookup); hot segments return the resident row view.
func (s *Segment) VectorByID(field int, id int64) ([]float32, bool) {
	p, ok := s.posOf(id)
	if !ok {
		return nil, false
	}
	if s.tier == nil {
		return s.Vectors[field].Row(int(p)), true
	}
	rowAt, rel, err := s.vectorRows(field)
	if err != nil {
		return nil, false
	}
	v := append([]float32(nil), rowAt(int(p))...)
	rel()
	return v, true
}

// AttrByID returns the attribute value of an entity, if present.
func (s *Segment) AttrByID(attr int, id int64) (int64, bool) {
	p, ok := s.posOf(id)
	if !ok {
		return 0, false
	}
	return s.RawAttrs[attr][p], true
}

// buildAttrColumns derives the sorted attribute columns from RawAttrs and
// the inverted categorical columns from RawCats.
func (s *Segment) buildAttrColumns() {
	s.Attrs = make([]*colstore.AttributeColumn, len(s.RawAttrs))
	for i, raw := range s.RawAttrs {
		s.Attrs[i] = colstore.BuildAttributeColumn(raw, s.IDs)
	}
	s.Cats = make([]*colstore.CategoricalColumn, len(s.RawCats))
	for i, raw := range s.RawCats {
		s.Cats[i] = colstore.BuildCategoricalColumn(raw, s.IDs)
	}
}

// CatByID returns the categorical value of an entity, if present.
func (s *Segment) CatByID(cat int, id int64) (string, bool) {
	p, ok := s.posOf(id)
	if !ok {
		return "", false
	}
	return s.RawCats[cat][p], true
}

// SetIndex installs a built index for a vector field, bumping the version
// (a new segment version is generated "upon ... building index", Sec. 5.2).
func (s *Segment) SetIndex(field int, idx index.Index) {
	s.indexMu.Lock()
	if s.indexes == nil {
		s.indexes = make([]index.Index, len(s.Vectors))
	}
	s.indexes[field] = idx
	s.Version++
	s.indexMu.Unlock()
}

// Index returns the field's index, if built.
func (s *Segment) Index(field int) index.Index {
	s.indexMu.RLock()
	defer s.indexMu.RUnlock()
	if s.indexes == nil {
		return nil
	}
	return s.indexes[field]
}

// SetFusedIndex installs an index over the concatenation of all vector
// fields (vector fusion, Sec. 4.2).
func (s *Segment) SetFusedIndex(idx index.Index) {
	s.indexMu.Lock()
	s.fused = idx
	s.Version++
	s.indexMu.Unlock()
}

// FusedIndex returns the fused index, if built.
func (s *Segment) FusedIndex() index.Index {
	s.indexMu.RLock()
	defer s.indexMu.RUnlock()
	return s.fused
}

// FusedData materializes the row-major concatenation of all vector fields.
// Returns nil if a tiered segment's storage is unreadable (promotion
// exhausted its retries).
func (s *Segment) FusedData() []float32 {
	total := 0
	for _, v := range s.Vectors {
		total += v.Dim
	}
	rows := make([]func(int) []float32, len(s.Vectors))
	rels := make([]func(), 0, len(s.Vectors))
	defer func() {
		for _, rel := range rels {
			rel()
		}
	}()
	for f := range s.Vectors {
		rowAt, rel, err := s.vectorRows(f)
		if err != nil {
			return nil
		}
		rows[f] = rowAt
		rels = append(rels, rel)
	}
	out := make([]float32, 0, total*s.Rows())
	for r := 0; r < s.Rows(); r++ {
		for f := range s.Vectors {
			out = append(out, rows[f](r)...)
		}
	}
	return out
}

// Search runs a top-k query on one vector field of this segment, using the
// built index when present and an exact scan otherwise (small segments are
// searched without indexes, Sec. 2.3).
func (s *Segment) Search(schema *Schema, field int, query []float32, p index.SearchParams) []topk.Result {
	if idx := s.Index(field); idx != nil {
		return idx.Search(query, p)
	}
	h := topk.GetHeap(p.K)
	s.SearchInto(h, schema, field, query, p)
	out := h.Results()
	topk.PutHeap(h)
	return out
}

// SearchInto is Search accumulating into a caller-owned heap: one heap can
// serve many segments, skipping the per-segment result allocation, sort and
// merge, and letting the worst retained distance prune pushes across
// segment boundaries. The unindexed scan goes through the shared blocked
// kernels (index.ScanBlocked), which feed the heap's worst distance into
// the early-abandon kernel so a row that cannot enter the top-k costs at
// most a prefix of its dimensions.
func (s *Segment) SearchInto(h *topk.Heap, schema *Schema, field int, query []float32, p index.SearchParams) {
	if idx := s.Index(field); idx != nil {
		for _, r := range idx.Search(query, p) {
			h.Push(r.ID, r.Distance)
		}
		return
	}
	sel := index.Selection{Bits: p.Bits}
	if s.tier == nil {
		// Resident path: call the slice kernel directly (no interface
		// boxing — this path must stay allocation-free).
		col := s.Vectors[field]
		index.ScanBlocked(h, schema.VectorFields[field].Metric, query, col.Data, col.Dim, s.IDs, sel)
		return
	}
	src, err := s.vectorSource(field)
	if err != nil {
		// Promotion exhausted its retries; this segment contributes
		// nothing to the query rather than torn results.
		return
	}
	index.ScanBlockedSource(h, schema.VectorFields[field].Metric, query, src, s.IDs, sel)
	src.Release()
}

// BuildIndex builds (synchronously) an index of the named type over one
// vector field.
func (s *Segment) BuildIndex(schema *Schema, field int, indexType string, params map[string]string) error {
	f := schema.VectorFields[field]
	b, err := index.NewBuilder(indexType, f.Metric, f.Dim, params)
	if err != nil {
		return err
	}
	data, rel, err := s.vectorData(field)
	if err != nil {
		return fmt.Errorf("core: segment %d field %q: %w", s.ID, f.Name, err)
	}
	idx, err := b.Build(data, s.IDs)
	rel()
	if err != nil {
		return fmt.Errorf("core: segment %d field %q: %w", s.ID, f.Name, err)
	}
	s.SetIndex(field, idx)
	return nil
}

// encodeSegment builds a sealed segment's one serialised form: a SEGX image
// (colstore's extent-file format) with one extent per column — the row IDs,
// each vector field, each raw attribute array and each categorical array.
// The sorted attribute and inverted categorical columns are not stored;
// decoding rebuilds them. The image is the segment's object in the store
// and, with tiering on, its mapped local extent file.
func encodeSegment(seg *Segment) ([]byte, error) {
	rows := uint64(seg.Rows())
	extents := []colstore.Extent{{
		Kind: colstore.ExtentIDs, Rows: rows,
		Payload: colstore.Int64sToBytes(seg.IDs),
	}}
	for f, col := range seg.Vectors {
		extents = append(extents, colstore.Extent{
			Kind: colstore.ExtentVectors, Field: uint32(f),
			Rows: rows, Dim: uint32(col.Dim),
			Payload: colstore.FloatsToBytes(col.Data),
		})
	}
	for a, raw := range seg.RawAttrs {
		extents = append(extents, colstore.Extent{
			Kind: colstore.ExtentAttr, Field: uint32(a), Rows: rows,
			Payload: colstore.Int64sToBytes(raw),
		})
	}
	for cf, raw := range seg.RawCats {
		extents = append(extents, colstore.Extent{
			Kind: colstore.ExtentCats, Field: uint32(cf), Rows: rows,
			Payload: colstore.MarshalStrings(raw),
		})
	}
	return colstore.EncodeSegmentFile(seg.ID, extents)
}

// DecodeSegment parses a segment object written by encodeSegment under
// schema. The image is checksum-verified and its shape checked in full: one
// ID extent, one vector extent per vector field at the field's dimension,
// one attribute and one categorical extent per field of those kinds, each
// holding as many rows as there are IDs, and nothing else. Vector, ID and
// attribute columns alias blob, which must not change afterwards; the
// sorted attribute and inverted categorical columns are rebuilt.
func DecodeSegment(blob []byte, schema *Schema) (*Segment, error) {
	return decodeSegment(blob, schema, false)
}

// decodeSegment is DecodeSegment; with ownHot set, the ID and attribute
// columns are copied out of blob rather than aliased. A tiered segment
// keeps only those columns in RAM, and the copies let blob — vector payload
// and all — be collected once the image is mapped.
func decodeSegment(blob []byte, schema *Schema, ownHot bool) (*Segment, error) {
	sf, err := colstore.DecodeSegmentFile(blob)
	if err != nil {
		return nil, err
	}
	if err := sf.VerifyChecksums(); err != nil {
		return nil, err
	}
	// Every lookup below finds a distinct (kind, field) entry, so with the
	// count matching there is exactly one of each and nothing more.
	want := 1 + len(schema.VectorFields) + len(schema.AttrFields) + len(schema.CatFields)
	if len(sf.Extents) != want {
		return nil, fmt.Errorf("core: segment %d has %d extents, schema wants %d", sf.SegID, len(sf.Extents), want)
	}
	ids := sf.Find(colstore.ExtentIDs, 0)
	if ids == nil {
		return nil, fmt.Errorf("core: segment %d has no id extent", sf.SegID)
	}
	rows := ids.Rows
	find := func(kind uint32, field int, dim int) (*colstore.Extent, error) {
		e := sf.Find(kind, uint32(field))
		if e == nil || e.Rows != rows || e.Dim != uint32(dim) {
			return nil, fmt.Errorf("core: segment %d lacks a kind %d extent for field %d with %d rows at dim %d",
				sf.SegID, kind, field, rows, dim)
		}
		return e, nil
	}
	seg := &Segment{ID: sf.SegID, IDs: ids.Int64s()}
	for f, vf := range schema.VectorFields {
		e, err := find(colstore.ExtentVectors, f, vf.Dim)
		if err != nil {
			return nil, err
		}
		seg.Vectors = append(seg.Vectors, colstore.NewVectorColumn(vf.Dim, e.Floats()))
	}
	for a := range schema.AttrFields {
		e, err := find(colstore.ExtentAttr, a, 0)
		if err != nil {
			return nil, err
		}
		seg.RawAttrs = append(seg.RawAttrs, e.Int64s())
	}
	for cf := range schema.CatFields {
		e, err := find(colstore.ExtentCats, cf, 0)
		if err != nil {
			return nil, err
		}
		raw, err := colstore.UnmarshalStrings(e.Payload)
		if err != nil {
			return nil, fmt.Errorf("core: segment %d categorical field %d: %w", sf.SegID, cf, err)
		}
		if uint64(len(raw)) != rows {
			return nil, fmt.Errorf("core: segment %d categorical field %d has %d rows, want %d", sf.SegID, cf, len(raw), rows)
		}
		seg.RawCats = append(seg.RawCats, raw)
	}
	if ownHot {
		seg.IDs = slices.Clone(seg.IDs)
		for a := range seg.RawAttrs {
			seg.RawAttrs[a] = slices.Clone(seg.RawAttrs[a])
		}
	}
	seg.buildAttrColumns()
	return seg, nil
}
