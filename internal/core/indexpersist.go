package core

import (
	"encoding/binary"
	"fmt"

	"vectordb/internal/index"
	"vectordb/internal/objstore"
	"vectordb/internal/vec"
)

// Index persistence: "both index and data are stored in the same segment"
// (Sec. 2.3). After an index build the serialized index is written next to
// its segment blob; stateless readers (Sec. 5.3) load the prebuilt index
// from shared storage instead of re-training it.

// IndexKey is the object-store key of a persisted per-field segment index.
func IndexKey(segmentKey string, field int) string {
	return fmt.Sprintf("%s/idx/%d", segmentKey, field)
}

// EncodeIndexBlob frames a serialized index with its registry type name so
// loaders know which Unmarshaler to use.
func EncodeIndexBlob(name string, blob []byte) []byte {
	out := make([]byte, 0, 4+len(name)+len(blob))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(name)))
	out = append(out, name...)
	return append(out, blob...)
}

// DecodeIndexBlob reverses EncodeIndexBlob.
func DecodeIndexBlob(data []byte) (name string, blob []byte, err error) {
	if len(data) < 4 {
		return "", nil, fmt.Errorf("core: index blob too short")
	}
	n := int(binary.LittleEndian.Uint32(data))
	if n < 0 || 4+n > len(data) {
		return "", nil, fmt.Errorf("core: index blob name overruns")
	}
	return string(data[4 : 4+n]), data[4+n:], nil
}

// persistIndex writes a freshly built index if its type supports
// persistence. A type without a blob (FLAT, RNSG, ANNOY) deletes the blob
// of the index it replaced, so a reader does not load a stale one.
// Failures are non-fatal: the reader will rebuild locally.
func (c *Collection) persistIndex(seg *Segment, field int) {
	idx := seg.Index(field)
	key := IndexKey(c.segmentKey(seg.ID), field)
	m, ok := idx.(index.Marshaler)
	if !ok {
		_ = c.store.Delete(key)
		return
	}
	blob, err := m.MarshalIndex()
	if err != nil {
		return
	}
	_ = c.store.Put(key, EncodeIndexBlob(idx.Name(), blob))
	// The async builder races with segment GC: if the segment died while we
	// were persisting, the GC's delete of this key may already have run, and
	// our Put would resurrect an orphan blob. Re-check and clean up.
	if !c.snaps.segmentLive(seg.ID) {
		_ = c.store.Delete(key)
	}
}

// LoadSegmentIndex fetches and reconstructs a persisted per-field index
// from store; ok=false when none was persisted.
func LoadSegmentIndex(store objstore.Store, segmentKey string, field int, metric vec.Metric, dim int) (index.Index, bool) {
	data, err := store.Get(IndexKey(segmentKey, field))
	if err != nil {
		return nil, false
	}
	name, blob, err := DecodeIndexBlob(data)
	if err != nil {
		return nil, false
	}
	idx, err := index.Unmarshal(name, metric, dim, blob)
	if err != nil {
		return nil, false
	}
	return idx, true
}
