package core

import (
	"fmt"

	"vectordb/internal/gpu"
	"vectordb/internal/index"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/query"
)

// AttachGPU offers a device scheduler to the planner: SearchCtx queries
// may be placed on the GPU venue when the transfer-vs-compute cost favors
// it (results stay host-exact either way — the devices' virtual clocks
// only price the plan). Passing nil detaches.
func (c *Collection) AttachGPU(sched *gpu.Scheduler) {
	// sched is already the concrete pointer type, so a typed nil detaches
	// without tripping atomic.Value's nil-interface panic.
	c.gpuSched.Store(sched)
}

// gpuScheduler returns the attached scheduler, nil when detached or empty.
func (c *Collection) gpuScheduler() *gpu.Scheduler {
	s, _ := c.gpuSched.Load().(*gpu.Scheduler)
	if s == nil || s.Devices() == 0 {
		return nil
	}
	return s
}

// gpuSegKey is the device-memory key for one segment's vector column —
// shared by the GPU search path and the planner's residency probe.
func (c *Collection) gpuSegKey(segID int64, field int) string {
	return fmt.Sprintf("gpu/%s/seg/%d/f%d", c.Name, segID, field)
}

// unwrapIndex strips the observability wrapper so the planner sees the
// real index family.
func unwrapIndex(idx index.Index) index.Index {
	if u, ok := idx.(interface{ Unwrap() index.Index }); ok {
		return u.Unwrap()
	}
	return idx
}

// planShape summarizes the snapshot for the planner: rows split by
// residency tier, index family/geometry, device residency, and the live
// pool backlog.
func (c *Collection) planShape(sn *Snapshot, f, nq, k, nprobe int, sched *gpu.Scheduler) (plan.QueryShape, []plan.Venue) {
	s := plan.QueryShape{
		NQ: nq, K: k, Dim: c.schema.VectorFields[f].Dim,
		Nprobe:     nprobe,
		QueueDepth: c.readLoad(),
		Workers:    c.pool.Workers(),
	}
	indexed, sq8h := 0, false
	var totalBytes, residentBytes int64
	for _, seg := range sn.Segments {
		rows := seg.Rows()
		mapped, tiered := seg.Mapped()
		switch {
		case !tiered:
			s.HotRows += rows
		case mapped:
			s.MappedRows += rows
		default:
			s.ColdRows += rows
		}
		if idx := seg.Index(f); idx != nil {
			indexed++
			base := unwrapIndex(idx)
			switch base.Name() {
			case "SQ8H":
				sq8h = true
				s.SQ8 = true
			case "IVF_SQ8":
				s.SQ8 = true
			}
			if nl, ok := base.(interface{ Nlist() int }); ok && s.Nlist == 0 {
				s.Nlist = nl.Nlist()
			}
		}
		if sched != nil {
			bytes := int64(rows) * int64(s.Dim) * 4
			totalBytes += bytes
			if sched.Resident(c.gpuSegKey(seg.ID, f)) {
				residentBytes += bytes
			}
		}
	}
	// The CPU venue reflects how the snapshot would actually execute —
	// unindexed segments scan flat, indexed ones probe — so offering it
	// never changes results; the GPU venue is host-exact by construction.
	// The venue label names the dominant shape.
	cpu := plan.VenueFlatCPU
	if indexed > 0 {
		cpu = plan.VenueIVFCPU
		if sq8h {
			cpu = plan.VenueSQ8H
		}
	}
	venues := []plan.Venue{cpu}
	if sched != nil {
		if totalBytes > 0 {
			s.DeviceResidentFrac = float64(residentBytes) / float64(totalBytes)
		}
		venues = append(venues, plan.VenueGPU)
	}
	return s, venues
}

// planVenue decides a vector query's execution venue against the pinned
// snapshot and annotates the trace with the plan and its estimate. A non-nil
// sched offers the device venue.
func (c *Collection) planVenue(sn *Snapshot, f, nq int, opts *SearchOptions, sched *gpu.Scheduler) plan.Decision {
	shape, venues := c.planShape(sn, f, nq, opts.K, opts.Nprobe, sched)
	dec := c.planner.PlaceQuery(c.Name+"/f"+fmt.Sprint(f), shape, venues...)
	annotatePlan(opts.Trace, dec)
	return dec
}

// annotatePlan records a planner decision on the query trace: plan= is
// the chosen venue/strategy, plan_est_ns the cost estimate it won with.
func annotatePlan(tr *obs.Trace, dec plan.Decision) {
	tr.Annotate("plan", dec.Choice())
	tr.AnnotateInt("plan_est_ns", dec.Est.Nanoseconds())
	if dec.Sticky {
		tr.Annotate("plan_sticky", "true")
	}
}

// PlanFilterShape implements query.Shaped: the physical shape of the
// vector leg under this pinned snapshot, for filter-strategy pricing.
func (v *SourceView) PlanFilterShape(field int) plan.FilterShape {
	if field < 0 || field >= len(v.c.schema.VectorFields) {
		return plan.FilterShape{}
	}
	return v.c.filterShape(v.sn, field)
}

// filterShape summarizes the snapshot's vector leg for filter-strategy
// pricing: rows, index family and geometry, and the live pool backlog.
func (c *Collection) filterShape(sn *Snapshot, field int) plan.FilterShape {
	fs := plan.FilterShape{
		Dim:        c.schema.VectorFields[field].Dim,
		QueueDepth: c.readLoad(),
		Workers:    c.pool.Workers(),
	}
	for _, seg := range sn.Segments {
		fs.Rows += seg.Rows()
		idx := seg.Index(field)
		if idx == nil {
			continue
		}
		base := unwrapIndex(idx)
		switch base.Name() {
		case "HNSW", "RNSG":
			fs.Graph = true
		case "SQ8H", "IVF_SQ8":
			fs.Indexed = true
			fs.SQ8 = true
		default:
			fs.Indexed = true
		}
		if nl, ok := base.(interface{ Nlist() int }); ok && fs.Nlist == 0 {
			fs.Nlist = nl.Nlist()
		}
	}
	return fs
}

var _ query.Shaped = (*SourceView)(nil)

// Planner exposes the collection's query planner (profile swaps,
// inspection in tests).
func (c *Collection) Planner() *plan.Planner { return c.planner }
