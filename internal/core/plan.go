package core

import (
	"vectordb/internal/index"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
	"vectordb/internal/query"
)

// unwrapIndex strips the observability wrapper so the planner sees the
// real index family.
func unwrapIndex(idx index.Index) index.Index {
	if u, ok := idx.(interface{ Unwrap() index.Index }); ok {
		return u.Unwrap()
	}
	return idx
}

// poolBacklog is the planner's load input: segment tasks queued on the
// shared pool plus queries waiting at admission plus OTHER in-flight
// queries. The planning query already holds its own admission slot, so one
// is subtracted — a lone query on an idle pool prices at load 0.
func (c *Collection) poolBacklog() int {
	load := c.pool.QueueDepth() + int(c.pool.Waiting()) + c.pool.Inflight() - 1
	if load < 0 {
		load = 0
	}
	return load
}

// planShape summarizes the snapshot for the planner — rows split by
// residency tier, IVF geometry, the live pool backlog — and names the one
// venue the snapshot executes on: ivf_cpu when an index serves a segment,
// else flat_cpu. A FLAT index is an exhaustive scan and counts as
// unindexed; graph and tree indexes keep the ivf_cpu label until venues are
// named per index.
func (c *Collection) planShape(sn *Snapshot, f, nq, k, nprobe int) (plan.QueryShape, plan.Venue) {
	s := plan.QueryShape{
		NQ: nq, K: k, Dim: c.schema.VectorFields[f].Dim,
		Nprobe:     nprobe,
		QueueDepth: c.poolBacklog(),
		Workers:    c.pool.Workers(),
	}
	venue := plan.VenueFlatCPU
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
		idx := seg.Index(f)
		if idx == nil {
			continue
		}
		base := unwrapIndex(idx)
		if base.Name() == "FLAT" {
			continue
		}
		venue = plan.VenueIVFCPU
		s.SQ8 = s.SQ8 || base.Name() == "IVF_SQ8"
		if nl, ok := base.(interface{ Nlist() int }); ok && s.Nlist == 0 {
			s.Nlist = nl.Nlist()
		}
	}
	return s, venue
}

// planVenue prices a vector query's venue against the pinned snapshot and
// annotates the trace with the plan and its estimate.
func (c *Collection) planVenue(sn *Snapshot, f, nq int, opts *SearchOptions) plan.Decision {
	shape, venue := c.planShape(sn, f, nq, opts.K, opts.Nprobe)
	dec := c.planner.PlaceQuery("", shape, venue)
	annotatePlan(opts.Trace, dec)
	return dec
}

// annotatePlan records a planner decision on the query trace: plan= is
// the chosen venue/strategy, plan_est_ns the cost estimate it won with.
func annotatePlan(tr *obs.Trace, dec plan.Decision) {
	tr.Annotate("plan", dec.Choice())
	tr.AnnotateInt("plan_est_ns", dec.Est.Nanoseconds())
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
		QueueDepth: c.poolBacklog(),
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
		case "IVF_SQ8":
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
