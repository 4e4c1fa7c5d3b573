package core

import (
	"vectordb/internal/index"
	"vectordb/internal/obs"
	"vectordb/internal/plan"
)

// unwrapIndex strips the observability wrapper so the planner sees the
// real index family.
func unwrapIndex(idx index.Index) index.Index {
	if u, ok := idx.(interface{ Unwrap() index.Index }); ok {
		return u.Unwrap()
	}
	return idx
}

// planShape summarizes the snapshot for the planner — rows split by
// residency tier, IVF geometry, the live pool backlog — and names the one
// venue the snapshot executes on: ivf_cpu when an index serves a segment,
// else flat_cpu (a FLAT collection installs no index, so it scans); graph
// and tree indexes keep the ivf_cpu label until venues are named per index.
func (c *Collection) planShape(sn *Snapshot, f, nq, k, nprobe int) (plan.QueryShape, plan.Venue) {
	s := plan.QueryShape{
		NQ: nq, K: k, Dim: c.schema.VectorFields[f].Dim,
		Nprobe: nprobe,
		// The pool's backlog less the planning query's own slot: a lone
		// query on an idle pool prices at load 0.
		QueueDepth: max(c.pool.Backlog()-1, 0),
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

// annotatePlan records a planner decision on the query's record: plan= is
// the chosen venue/strategy, plan_est_ns the cost estimate it won with.
func annotatePlan(tr *obs.QueryRecord, dec plan.Decision) {
	tr.SetString(obs.PlanChoice, dec.Choice())
	tr.SetInt(obs.PlanEstNs, dec.Est.Nanoseconds())
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
		QueueDepth: max(c.pool.Backlog()-1, 0),
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
