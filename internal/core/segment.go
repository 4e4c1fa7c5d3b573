package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"vectordb/internal/bitset"
	"vectordb/internal/colstore"
	"vectordb/internal/index"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Segment is one version of a segment — "the basic unit of searching,
// scheduling, and buffering" (Sec. 2.3). Its data (segData) is shared by
// every version and never changes after creation; building an index
// generates a new version of the same segment (Sec. 5.2), which the
// collection installs in a new snapshot. A version reachable from an
// installed snapshot is never mutated, so a query reads the indexes of the
// version its snapshot holds, once or many times, and always gets the same.
type Segment struct {
	*segData
	indexes []index.Index // per vector field; nil = unindexed (brute scan)
	// payloads[f] is the externalized IVF payload tier indexes[f] reads (its
	// build-order fine payload in its own extent file), nil when resident.
	// The snapshot tracker counts references to it across versions.
	payloads []*segTier
}

// segData is what every version of a segment shares: its rows, columns and
// tier residency.
type segData struct {
	ID      int64
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

	// codes[f] is L2 field f's 8-bit code copy, derived from the column at
	// the segment's second scan of f (scanCodes). It lives on the heap,
	// tiered or not; a demote drops it (dropCodes), so a cold segment holds
	// no heap bytes beyond its metadata.
	codesOnce sync.Once
	codes     []fieldCodes

	// tier, when set, is the out-of-core residency state machine: the
	// vector payloads live in an mmap-backed extent file (and the segment's
	// object in the store) instead of Vectors[f].Data, and every read goes
	// through the vectorData/vectorRows accessors. Nil = hot
	// (all-RAM). Residency changes where the bytes live, not what a version
	// serves, so it is the one state that moves after publish.
	tier *segTier
}

// newSegment returns the first version of a segment with no data yet.
func newSegment(id int64) *Segment { return &Segment{segData: &segData{ID: id}} }

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

// fieldCodes is one vector field's code copy, built once per residency,
// and the count of scans that asked for it before it was built.
type fieldCodes struct {
	scans atomic.Int64
	mu    sync.Mutex // serializes the encode
	codes atomic.Pointer[vec.Codes]
}

// noGrid marks a field whose values no grid serves, so its scans stop
// asking for an encode.
var noGrid = new(vec.Codes)

// scanCodes returns field f's code copy for an exact scan of data, its
// column: nil at the segment's first scan of f, derived at the second, nil
// for a field that is not L2 or whose values no grid serves
// (vec.EncodeCodes). The encode costs about three float scans, so a
// segment scanned once — a fresh segment merged away before its next
// query, a one-off probe — never pays it. Once the codes exist, a scan
// reads one atomic pointer and counts nothing. Every way a segment comes
// to exist (seal, merge, restore, tier open, a reader's load) gets its
// codes here.
func (s *segData) scanCodes(vf *VectorField, f int, data []float32) *vec.Codes {
	if vf.Metric != vec.L2 {
		return nil
	}
	fc := s.fieldCodes(f)
	c := fc.codes.Load()
	if c == nil {
		if fc.scans.Add(1) == 1 {
			return nil
		}
		fc.mu.Lock()
		if c = fc.codes.Load(); c == nil {
			if c = vec.EncodeCodes(data, vf.Dim); c == nil {
				c = noGrid
			}
			fc.codes.Store(c)
		}
		fc.mu.Unlock()
	}
	if c == noGrid {
		return nil
	}
	return c
}

func (s *segData) fieldCodes(f int) *fieldCodes {
	s.codesOnce.Do(func() { s.codes = make([]fieldCodes, len(s.Vectors)) })
	return &s.codes[f]
}

// dropCodes releases every field's code copy and restarts its scan count,
// so the field's next second scan rebuilds it. A demote calls it: the
// codes are heap bytes outside TierMappedBytes, and a cold segment must
// not keep them. A scan still holding the old copy finishes on it.
func (s *segData) dropCodes() {
	for f := range s.Vectors {
		fc := s.fieldCodes(f)
		fc.mu.Lock()
		fc.codes.Store(nil)
		fc.scans.Store(0)
		fc.mu.Unlock()
	}
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
// lookup); hot segments return the resident row view. A tiered segment
// whose bytes cannot be read is an error, not an absent entity.
func (s *Segment) VectorByID(field int, id int64) ([]float32, bool, error) {
	p, ok := s.posOf(id)
	if !ok {
		return nil, false, nil
	}
	if s.tier == nil {
		return s.Vectors[field].Row(int(p)), true, nil
	}
	rowAt, rel, err := s.vectorRows(field)
	if err != nil {
		return nil, false, err
	}
	v := append([]float32(nil), rowAt(int(p))...)
	rel()
	return v, true, nil
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

// Index returns the field's index, if built; scanField names none.
func (s *Segment) Index(field int) index.Index {
	if field < 0 || field >= len(s.indexes) {
		return nil
	}
	return s.indexes[field]
}

// WithIndex returns a new version of s that serves idx for the vector
// field (nil scans the column). s itself is not changed.
func (s *Segment) WithIndex(field int, idx index.Index) *Segment {
	return s.withIndex(field, idx, nil)
}

// withIndex is WithIndex with the payload tier idx reads (nil when
// resident).
func (s *Segment) withIndex(field int, idx index.Index, payload *segTier) *Segment {
	v := *s
	v.indexes = make([]index.Index, len(s.Vectors))
	copy(v.indexes, s.indexes)
	v.indexes[field] = idx
	v.payloads = make([]*segTier, len(s.Vectors))
	copy(v.payloads, s.payloads)
	v.payloads[field] = payload
	return &v
}

// SearchInto runs a top-k query on one vector field of this segment into a
// caller-owned heap, using the built index when present and an exact scan
// (scanInto) otherwise (small segments are searched without indexes, Sec.
// 2.3). One heap serves many segments, so there is no per-segment result
// list, sort or merge, and the worst retained distance prunes pushes
// across segment boundaries. An index probe pushes into h through
// index.SearchInto.
//
// A segment whose bytes cannot be read (a tiered segment, or an
// externalized IVF payload, whose promotion exhausted its retries) is the
// query's error: answering without the segment would silently drop its
// rows.
func (s *Segment) SearchInto(h *topk.Heap, schema *Schema, field int, query []float32, p index.SearchParams) error {
	if idx := s.Index(field); idx != nil {
		if err := index.SearchInto(idx, h, query, p); err != nil {
			return fmt.Errorf("core: segment %d: %w", s.ID, err)
		}
		return nil
	}
	return s.scanInto(h, schema, field, query, p)
}

// scanInto is the segment's exact scan of one vector field into h, never
// its index, through the shared blocked kernels: an unindexed L2 column of
// at least codedBatchFloats with a code copy through index.ScanCoded, which
// reads the codes first and scores in float only the rows whose bound can
// still enter the top-k, any other through index.ScanBlocked, which feeds
// the heap's worst distance into the early-abandon kernel. A field with an
// index gets no code copy.
func (s *Segment) scanInto(h *topk.Heap, schema *Schema, field int, query []float32, p index.SearchParams) error {
	data, rel, err := s.vectorData(field)
	if err != nil {
		return fmt.Errorf("core: segment %d: %w", s.ID, err)
	}
	vf := &schema.VectorFields[field]
	sel := index.Selection{Bits: p.Bits}
	var codes *vec.Codes
	if len(data) >= codedBatchFloats && s.Index(field) == nil { // a batch of one member, per segment
		codes = s.scanCodes(vf, field, data)
	}
	if codes != nil {
		index.ScanCoded([]*topk.Heap{h}, query, data, codes, s.IDs, sel)
	} else {
		index.ScanBlocked(h, vf.Metric, query, data, vf.Dim, s.IDs, sel)
	}
	rel()
	return nil
}

// BuildIndex builds (synchronously) an index of the named type over one
// vector field and returns it; the segment is not changed. FLAT is the
// exhaustive scan the segment already runs over its own column, so a FLAT
// build returns no index rather than a copy of the vectors.
func (s *Segment) BuildIndex(schema *Schema, field int, indexType string, params map[string]string) (index.Index, error) {
	f := schema.VectorFields[field]
	b, err := index.NewBuilder(indexType, f.Metric, f.Dim, params)
	if err != nil || indexType == "FLAT" {
		return nil, err
	}
	data, rel, err := s.vectorData(field)
	if err != nil {
		return nil, fmt.Errorf("core: segment %d field %q: %w", s.ID, f.Name, err)
	}
	idx, err := b.Build(data, s.IDs)
	rel()
	if err != nil {
		return nil, fmt.Errorf("core: segment %d field %q: %w", s.ID, f.Name, err)
	}
	return idx, nil
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
	seg := newSegment(sf.SegID)
	seg.IDs = ids.Int64s()
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
