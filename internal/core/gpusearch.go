package core

import (
	"context"
	"fmt"
	"time"

	"vectordb/internal/gpu"
	"vectordb/internal/topk"
)

// GPUSearcher runs collection searches on a fleet of (simulated) GPU
// devices using the segment-based scheduling of Sec. 3.3: the segment is
// the unit of searching and scheduling, each segment-level search task is
// served by exactly one device (sticky, so segment data is not duplicated
// across devices), and new tasks go to the least-loaded device — so a GPU
// installed at runtime immediately picks up the next task. Results are
// computed exactly on the host; the devices' virtual clocks price the plan.
type GPUSearcher struct {
	col   *Collection
	sched *gpu.Scheduler
}

// NewGPUSearcher wraps a collection with a device scheduler. The scheduler
// is also attached to the collection, which lets the cost-based planner
// offer the GPU venue to plain SearchCtx queries (the collection stays
// detached only if AttachGPU(nil) is called afterwards).
func NewGPUSearcher(col *Collection, sched *gpu.Scheduler) (*GPUSearcher, error) {
	if sched == nil || sched.Devices() == 0 {
		return nil, fmt.Errorf("core: GPU search needs at least one device")
	}
	col.AttachGPU(sched)
	return &GPUSearcher{col: col, sched: sched}, nil
}

// Scheduler exposes the scheduler (elastic add/remove of devices).
func (g *GPUSearcher) Scheduler() *gpu.Scheduler { return g.sched }

// GPUSearchStats prices one search.
type GPUSearchStats struct {
	Segments      int
	Makespan      time.Duration // max device busy time for this search
	TransferBytes int64
}

// Search answers a top-k query: every segment's scan is assigned to a
// device, the segment's vector data is made resident (transferring over
// PCIe on a miss), the scan kernel is charged, and per-segment results are
// merged on the host.
func (g *GPUSearcher) Search(query []float32, opts SearchOptions) ([]topk.Result, GPUSearchStats, error) {
	//lint:allow ctxflow ctx-less compat wrapper: public API without a context anchors at Background
	return g.SearchCtx(context.Background(), query, opts)
}

// SearchCtx is Search with admission control and cancellation: placement
// shares the collection's in-flight budget with CPU queries, and a
// cancelled query stops before assigning the next segment to a device.
// The GPU venue here is the caller's explicit choice, not the planner's —
// the trace records it as a forced plan.
func (g *GPUSearcher) SearchCtx(ctx context.Context, query []float32, opts SearchOptions) ([]topk.Result, GPUSearchStats, error) {
	res, err := g.col.execute(ctx, &Query{kind: kindGPU, vec: query, gpu: g.sched, opts: opts})
	return res.hits, res.gpu, err
}

// gpuSearchSnapshot runs one query over a pinned snapshot on the device
// fleet: every segment's scan is assigned to a (sticky) device, the
// segment's vector data is made resident and the scan kernel is charged on
// the device's virtual clock; the results are then computed exactly on the
// host by the per-segment sweep. Shared by the explicit GPUSearcher entry
// and SearchCtx queries the planner placed on the GPU venue.
func (c *Collection) gpuSearchSnapshot(ctx context.Context, sn *Snapshot, sched *gpu.Scheduler, field int, query []float32, opts SearchOptions) ([]topk.Result, GPUSearchStats, error) {
	tr := opts.Trace
	var stats GPUSearchStats
	stats.Segments = len(sn.Segments)
	start := map[int]time.Duration{}
	dim := c.schema.VectorFields[field].Dim
	for _, seg := range sn.Segments {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		key := c.gpuSegKey(seg.ID, field)
		dev, err := sched.Assign(key)
		if err != nil {
			return nil, stats, err
		}
		if _, tracked := start[dev.ID()]; !tracked {
			start[dev.ID()] = dev.Clock()
		}
		span := tr.StartSpan("gpu_segment_search")
		span.AnnotateInt("segment", seg.ID)
		span.AnnotateInt("device", int64(dev.ID()))
		bytes := int64(seg.Rows()) * int64(dim) * 4
		if tb, err := dev.EnsureResident([]string{key}, []int64{bytes}); err == nil {
			stats.TransferBytes += tb
			span.AnnotateInt("pcie_bytes", tb)
		}
		dev.RunKernel(int64(seg.Rows()) * int64(dim))
		span.End()
	}
	for id, s0 := range start {
		if d, ok := sched.Device(id); ok {
			if delta := d.Clock() - s0; delta > stats.Makespan {
				stats.Makespan = delta
			}
		}
	}
	tr.AnnotateInt("transfer_bytes", stats.TransferBytes)
	res, err := c.searchSnapshot(ctx, sn, field, query, opts)
	return res, stats, err
}
