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

// encodeIndex returns idx's persisted form, nil when its type has none
// (FLAT, RNSG, ANNOY) or it fails to marshal.
func encodeIndex(idx index.Index) []byte {
	m, ok := idx.(index.Marshaler)
	if !ok {
		return nil
	}
	blob, err := m.MarshalIndex()
	if err != nil {
		return nil
	}
	return EncodeIndexBlob(idx.Name(), blob)
}

// persistIndex writes an installed build's blob. A build without one
// deletes the blob of the index it replaced, so a reader does not load a
// stale one. Failures are non-fatal: the reader will rebuild locally.
func (c *Collection) persistIndex(b builtIndex) {
	key := IndexKey(c.segmentKey(b.seg), b.field)
	if b.blob == nil {
		_ = c.store.Delete(key)
		return
	}
	_ = c.store.Put(key, b.blob)
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
