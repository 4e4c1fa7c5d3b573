package core

import (
	"fmt"

	"vectordb/internal/objstore"
)

// The distributed deployment (Sec. 5.3) keeps computing instances
// stateless: a crashed writer or a fresh reader rebuilds its in-memory
// state from shared storage. This file provides the restore path.

// SegmentKeys lists the object-store keys of the current snapshot's
// segments, in segment order (the manifest the writer publishes).
func (c *Collection) SegmentKeys() []string {
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	keys := make([]string, len(sn.Segments))
	for i, s := range sn.Segments {
		keys[i] = c.segmentKey(s.ID)
	}
	return keys
}

// Tombstones returns a copy of the current snapshot's sequence-scoped
// tombstones (shipped in the manifest so readers hide deleted rows).
func (c *Collection) Tombstones() map[int64]int64 {
	sn := c.snaps.acquire()
	defer c.snaps.release(sn)
	out := make(map[int64]int64, len(sn.Deleted))
	for id, seq := range sn.Deleted {
		out[id] = seq
	}
	return out
}

// RestoreCollection reconstructs a collection from segment objects in store —
// the stateless-restart path of Sec. 5.3. segKeys are object-store keys as
// published by SegmentKeys; deleted is the tombstone map from the manifest.
func RestoreCollection(name string, schema Schema, store objstore.Store, cfg Config, segKeys []string, deleted map[int64]int64) (*Collection, error) {
	c, err := NewCollection(name, schema, store, cfg)
	if err != nil {
		return nil, err
	}
	segs := make([]*Segment, 0, len(segKeys))
	maxID := int64(0)
	for _, key := range segKeys {
		blob, err := store.Get(key)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: restore %s: %w", key, err)
		}
		seg, err := decodeSegment(blob, &schema, c.tier != nil)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("core: restore %s: %w", key, err)
		}
		if seg.ID > maxID {
			maxID = seg.ID
		}
		// A tiered restore maps the fetched image as the segment's extent
		// file at once (no re-encode, no re-Put): the decoded vector columns
		// live only until then, so a reader restoring a dataset much larger
		// than RAM never holds it resident.
		if err := c.tierSegment(seg, blob); err != nil {
			c.Close()
			return nil, fmt.Errorf("core: restore %s: %w", key, err)
		}
		segs = append(segs, seg)
	}
	c.mu.Lock()
	c.nextSeg = maxID
	c.snaps.install(newSnapshot(c.allocSnapID(), segs, deleted, nil))
	c.mu.Unlock()
	for _, seg := range segs {
		// No lock is held here, so inline builds run directly.
		if s := c.scheduleIndex(seg); s != nil {
			c.buildSegmentIndexes(s)
			c.pendingIdx.Add(-1)
		}
	}
	return c, nil
}
