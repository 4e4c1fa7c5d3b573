package core

import (
	"fmt"
	"math/bits"
	"slices"

	"vectordb/internal/bitset"
	"vectordb/internal/wal"
)

// mergeLocked applies the tiered merge policy of Sec. 2.3 (as in Apache
// Lucene): segments are grouped into size tiers; whenever a tier holds at
// least MergeFactor segments and the merged result stays under
// MaxSegmentRows, those segments are merged into one. Tombstoned rows are
// physically dropped during the merge ("the obsoleted vectors are removed
// during segment merge"), and fully compacted tombstones leave the
// snapshot's deleted set. Caller holds c.mu.
func (c *Collection) mergeLocked() error {
	for {
		sn := c.snaps.acquire()
		group := c.pickMergeGroup(sn)
		if group == nil {
			c.snaps.release(sn)
			return nil
		}
		merged, err := c.mergeSegments(group, sn)
		if err != nil {
			c.snaps.release(sn)
			return err
		}
		c.met.merges.Inc()
		groupRows := 0
		for _, gi := range group {
			groupRows += sn.Segments[gi].Rows()
		}
		mergedRows := 0
		if merged != nil {
			mergedRows = merged.Rows()
		}
		c.met.mergeDropped.Add(int64(groupRows - mergedRows))

		var segments []*Segment
		for i, s := range sn.Segments {
			if !slices.Contains(group, i) {
				segments = append(segments, s)
			}
		}
		if merged != nil {
			segments = append(segments, merged)
		}

		// Tombstones whose rows are now physically gone everywhere are
		// resolved: newSnapshot drops them.
		next := newSnapshot(c.allocSnapID(), segments, sn.Deleted, nil)
		c.snaps.release(sn)
		c.snaps.install(next)
		if merged != nil {
			if s := c.scheduleIndex(merged); s != nil {
				c.deferredBuilds = append(c.deferredBuilds, s)
			}
		}
	}
}

// tierOf buckets a segment by size: tier t covers [FlushRows·2^t,
// FlushRows·2^(t+1)), so "approximately equal sizes" share a tier.
func (c *Collection) tierOf(rows int) int {
	if rows < c.cfg.FlushRows {
		return 0
	}
	return bits.Len(uint(rows / c.cfg.FlushRows))
}

// pickMergeGroup returns the first tier with at least MergeFactor segments
// whose combined size respects MaxSegmentRows, as indexes into sn.Segments,
// or nil.
func (c *Collection) pickMergeGroup(sn *Snapshot) []int {
	tiers := map[int][]int{}
	for i, s := range sn.Segments {
		if s.Rows() >= c.cfg.MaxSegmentRows {
			continue // size limit reached; this segment stops merging
		}
		t := c.tierOf(s.Rows())
		tiers[t] = append(tiers[t], i)
	}
	for t := 0; t <= 64; t++ {
		group := tiers[t]
		if len(group) < c.cfg.MergeFactor {
			continue
		}
		group = group[:c.cfg.MergeFactor]
		total := 0
		for _, gi := range group {
			total += sn.Segments[gi].Rows()
		}
		if total > c.cfg.MaxSegmentRows {
			continue
		}
		return group
	}
	return nil
}

// mergeSegments concatenates the visible rows of the group (indexes into
// sn.Segments) into one new segment. Returns nil if every row was tombstoned.
func (c *Collection) mergeSegments(group []int, sn *Snapshot) (*Segment, error) {
	total := 0
	for _, gi := range group {
		if vis := sn.visible[gi]; vis != nil {
			total += vis.Count()
		} else {
			total += sn.Segments[gi].Rows()
		}
	}
	if total == 0 {
		return nil, nil
	}
	rows := &wal.Batch{Kind: wal.Insert, IDs: make([]int64, 0, total)}
	for _, vf := range c.schema.VectorFields {
		rows.Vectors = append(rows.Vectors, make([]float32, 0, total*vf.Dim))
	}
	rows.Attrs, rows.Cats = make([][]int64, len(c.schema.AttrFields)), make([][]string, len(c.schema.CatFields))
	for a := range rows.Attrs {
		rows.Attrs[a] = make([]int64, 0, total)
	}
	for cf := range rows.Cats {
		rows.Cats[cf] = make([]string, 0, total)
	}
	for _, gi := range group {
		if err := appendVisible(rows, sn.Segments[gi], sn.visible[gi]); err != nil {
			return nil, err
		}
	}
	return c.buildSegment(rows)
}

// appendVisible appends s's rows that visible marks (all when nil) to rows,
// a run of visible rows at a time. It pins s's vectors once per field for
// the whole copy: a tiered segment faults its extents in, a hot one hands
// out its resident columns.
func appendVisible(rows *wal.Batch, s *Segment, visible *bitset.Bitset) error {
	src := &wal.Batch{IDs: s.IDs, Attrs: s.RawAttrs, Cats: s.RawCats}
	for f := range s.Vectors {
		data, rel, err := s.vectorData(f)
		if err != nil {
			return fmt.Errorf("core: merge segment %d: %w", s.ID, err)
		}
		defer rel()
		src.Vectors = append(src.Vectors, data)
	}
	if visible == nil {
		appendRows(rows, src, 0, s.Rows())
		return nil
	}
	for lo, hi, ok := visible.NextRun(0); ok; lo, hi, ok = visible.NextRun(hi) {
		appendRows(rows, src, lo, hi)
	}
	return nil
}
