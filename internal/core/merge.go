package core

import (
	"fmt"
	"math/bits"
	"slices"

	"vectordb/internal/colstore"
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
	var totalRows int
	for _, gi := range group {
		totalRows += sn.Segments[gi].Rows()
	}
	c.nextSeg++
	seg := &Segment{ID: c.nextSeg}
	seg.IDs = make([]int64, 0, totalRows)
	dims := make([]int, len(c.schema.VectorFields))
	data := make([][]float32, len(c.schema.VectorFields))
	for f, vf := range c.schema.VectorFields {
		dims[f] = vf.Dim
		data[f] = make([]float32, 0, totalRows*vf.Dim)
	}
	raw := make([][]int64, len(c.schema.AttrFields))
	rawCats := make([][]string, len(c.schema.CatFields))
	for _, gi := range group {
		s, visible := sn.Segments[gi], sn.visible[gi]
		// Pin the source segment's storage once per field for the whole
		// copy (tiered members fault their extents in; hot members hand
		// out resident rows).
		rows := make([]func(int) []float32, len(data))
		rels := make([]func(), 0, len(data))
		var rowErr error
		for f := range data {
			rowAt, rel, err := s.vectorRows(f)
			if err != nil {
				rowErr = err
				break
			}
			rows[f] = rowAt
			rels = append(rels, rel)
		}
		if rowErr != nil {
			for _, rel := range rels {
				rel()
			}
			return nil, fmt.Errorf("core: merge segment %d: %w", s.ID, rowErr)
		}
		for r := 0; r < s.Rows(); r++ {
			if visible != nil && !visible.Test(r) {
				continue
			}
			seg.IDs = append(seg.IDs, s.IDs[r])
			for f := range data {
				data[f] = append(data[f], rows[f](r)...)
			}
			for a := range raw {
				raw[a] = append(raw[a], s.RawAttrs[a][r])
			}
			for cf := range rawCats {
				rawCats[cf] = append(rawCats[cf], s.RawCats[cf][r])
			}
		}
		for _, rel := range rels {
			rel()
		}
	}
	if len(seg.IDs) == 0 {
		return nil, nil
	}
	for f := range data {
		seg.Vectors = append(seg.Vectors, colstore.NewVectorColumn(dims[f], data[f]))
	}
	seg.RawAttrs = raw
	seg.RawCats = rawCats
	seg.buildAttrColumns()
	if err := c.seal(seg); err != nil {
		return nil, err
	}
	return seg, nil
}
