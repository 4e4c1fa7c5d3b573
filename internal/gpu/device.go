// Package gpu models the GPU engine of Sec. 3.3/3.4 in software. Real GPUs
// are unavailable in this environment (see DESIGN.md §1), so a Device tracks
// the two quantities that drive the paper's GPU results on a virtual clock:
//
//   - PCIe transfers: moving a byte range into device memory costs
//     latency + bytes/bandwidth, and device memory is a finite LRU-managed
//     pool, so data that does not fit is re-transferred ("loading buckets on
//     the fly"). Multi-bucket batched copies amortize the per-transfer
//     latency, reproducing the paper's under-utilized-PCIe observation.
//
//   - Kernels: a kernel over W distance-dimension units advances the clock
//     by W/KernelThroughput. Device throughput is configured relative to
//     host-CPU throughput, standing in for the T4's parallelism.
//
// The virtual clock makes the experiments deterministic and hardware
// independent; results (actual top-k values) are always computed exactly on
// the host, the model only prices the plan.
package gpu

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"vectordb/internal/obs"
)

// Config describes one simulated GPU device. Defaults approximate the
// paper's Tesla T4 testbed with the *measured* (not theoretical) PCIe rate.
type Config struct {
	MemBytes         int64         // global memory; default 16 GiB
	PCIeBandwidth    float64       // bytes/sec for device copies; default 1.5 GB/s (paper's measured 1~2 GB/s)
	PCIeLatency      time.Duration // fixed per-copy setup cost; default 30 µs
	KernelThroughput float64       // distance-dims/sec; default 20e9
	MaxKernelK       int           // shared-memory top-k bound per launch; default 1024 (Sec. 3.3)
	// Obs, when set, receives per-device transfer/kernel counters
	// (vectordb_gpu_* series labeled device="<id>").
	Obs *obs.Registry
}

func (c *Config) defaults() {
	if c.MemBytes <= 0 {
		c.MemBytes = 16 << 30
	}
	if c.PCIeBandwidth <= 0 {
		c.PCIeBandwidth = 1.5e9
	}
	if c.PCIeLatency <= 0 {
		c.PCIeLatency = 30 * time.Microsecond
	}
	if c.KernelThroughput <= 0 {
		// ~2× the DefaultCPUModel aggregate rate: the T4's parallel
		// advantage on distance kernels, net of launch overheads.
		c.KernelThroughput = 6.4e10
	}
	if c.MaxKernelK <= 0 {
		c.MaxKernelK = 1024
	}
}

// Device is one simulated GPU.
type Device struct {
	id  int
	cfg Config

	mu       sync.Mutex
	clock    time.Duration // accumulated modeled busy time
	used     int64
	resident map[string]*residentEntry
	lruSeq   int64
	xfers    int64 // number of PCIe copy operations
	xferred  int64 // bytes moved over PCIe

	xferC      *obs.Counter // PCIe copies
	xferBytesC *obs.Counter // PCIe bytes
	kernelC    *obs.Counter // kernel launches
	kernelDims *obs.Counter // distance-dims executed
}

type residentEntry struct {
	bytes int64
	seq   int64
}

// NewDevice creates a device with the given id and configuration.
func NewDevice(id int, cfg Config) *Device {
	cfg.defaults()
	lbl := strconv.Itoa(id)
	return &Device{
		id: id, cfg: cfg, resident: map[string]*residentEntry{},
		xferC:      cfg.Obs.Counter("vectordb_gpu_transfers_total", "device", lbl),
		xferBytesC: cfg.Obs.Counter("vectordb_gpu_transfer_bytes_total", "device", lbl),
		kernelC:    cfg.Obs.Counter("vectordb_gpu_kernels_total", "device", lbl),
		kernelDims: cfg.Obs.Counter("vectordb_gpu_kernel_dims_total", "device", lbl),
	}
}

// ID returns the device id.
func (d *Device) ID() int { return d.id }

// Config returns the device configuration.
//
//lint:allow testonly sq8h's placement tests price a device by its filled-in configuration
func (d *Device) Config() Config { return d.cfg }

// Clock returns the modeled busy time accumulated so far.
func (d *Device) Clock() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clock
}

// Stats reports transfer counters.
func (d *Device) Stats() (copies int64, bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.xfers, d.xferred
}

// EnsureResident makes the keyed byte ranges resident, charging one PCIe
// copy for the whole set of misses (the multi-bucket copy of Sec. 3.4; pass
// buckets one at a time to model Faiss's bucket-by-bucket behaviour).
// Evicts least-recently-used entries when memory is full. Returns the bytes
// actually transferred. It is an error for a single entry to exceed device
// memory.
func (d *Device) EnsureResident(keys []string, sizes []int64) (int64, error) {
	if len(keys) != len(sizes) {
		return 0, fmt.Errorf("gpu: %d keys but %d sizes", len(keys), len(sizes))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var missBytes int64
	for i, k := range keys {
		if sizes[i] > d.cfg.MemBytes {
			return 0, fmt.Errorf("gpu: entry %q (%d bytes) exceeds device memory (%d bytes)", k, sizes[i], d.cfg.MemBytes)
		}
		if e, ok := d.resident[k]; ok {
			d.lruSeq++
			e.seq = d.lruSeq
			continue
		}
		missBytes += sizes[i]
	}
	if missBytes == 0 {
		return 0, nil
	}
	for i, k := range keys {
		if _, ok := d.resident[k]; ok {
			continue
		}
		d.evictFor(sizes[i])
		d.lruSeq++
		d.resident[k] = &residentEntry{bytes: sizes[i], seq: d.lruSeq}
		d.used += sizes[i]
	}
	d.clock += d.cfg.PCIeLatency + time.Duration(float64(missBytes)/d.cfg.PCIeBandwidth*float64(time.Second))
	d.xfers++
	d.xferred += missBytes
	d.xferC.Inc()
	d.xferBytesC.Add(missBytes)
	return missBytes, nil
}

// evictFor frees memory (LRU) until need bytes fit. Caller holds mu.
func (d *Device) evictFor(need int64) {
	for d.used+need > d.cfg.MemBytes {
		var victim string
		var oldest int64 = 1<<63 - 1
		for k, e := range d.resident {
			if e.seq < oldest {
				oldest, victim = e.seq, k
			}
		}
		if victim == "" {
			return
		}
		d.used -= d.resident[victim].bytes
		delete(d.resident, victim)
	}
}

// Evict removes a key from device memory (segment dropped after a merge).
func (d *Device) Evict(key string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.resident[key]; ok {
		d.used -= e.bytes
		delete(d.resident, key)
	}
}

// RunKernel charges a kernel over distDims distance-dimension units (one
// unit = one float multiply-accumulate of a distance computation).
func (d *Device) RunKernel(distDims int64) {
	if distDims <= 0 {
		return
	}
	d.mu.Lock()
	d.clock += time.Duration(float64(distDims) / d.cfg.KernelThroughput * float64(time.Second))
	d.mu.Unlock()
	d.kernelC.Inc()
	d.kernelDims.Add(distDims)
}

// CPUModel prices the same work units on the host CPU so that plans
// executed on different processors are comparable on one virtual timescale
// (Fig. 13 compares pure CPU, pure GPU and SQ8H).
type CPUModel struct {
	// DistThroughput is host distance-dims/sec across all cores; the paper's
	// 16-vCPU Cascade Lake with AVX512 sustains roughly 2e9 dims/s/core.
	DistThroughput float64
}

// DefaultCPUModel approximates the paper's ecs.g6e.4xlarge instance.
func DefaultCPUModel() CPUModel { return CPUModel{DistThroughput: 3.2e10} }

// Cost prices distDims units of distance work on the CPU.
func (m CPUModel) Cost(distDims int64) time.Duration {
	if distDims <= 0 {
		return 0
	}
	return time.Duration(float64(distDims) / m.DistThroughput * float64(time.Second))
}
