package main

import "time"

// Workload is one scenario, as data: what is stored, how it is indexed,
// what traffic runs against it and why it exists. Every size and rate is a
// constant here — nothing is derived from the machine at run time except N,
// the closed loops' client count (min(nproc, 4)).
type Workload struct {
	Name string
	Why  string // one line; BENCHMARK.json repeats it

	// Stored data. Rows arrive in ingest batches of the engine's flush
	// threshold (4096), so the engine's one-second flush timer almost never
	// finds a partly filled MemTable and the segment layout — hence recall
	// and scan cost — is the same on every run.
	Rows, Dim int
	Data      string // "siftlike" or "uniform"
	Attr      bool   // one int attribute "a", uniform in [0, attrUpper)

	Index  string // index_type of the collection
	Nlist  int
	Nprobe int
	K      int

	// CacheDiv, when non-zero, enables tiering with a block cache of
	// vector payload ÷ CacheDiv bytes.
	CacheDiv int64

	Cluster bool // in-process cluster (writer + 2 readers), no REST surface
	Filter  bool // range filter cycling filterShares of the attribute domain

	OpenLoop bool    // Poisson arrivals at Rate over max(1, N-1) connections
	Rate     float64 // searches per second (open loop)
	Clients  int     // closed-loop clients; 0 means N
	Writer   *Writer // concurrent write traffic on its own connection

	RecallSample int     // queries checked against exact brute force after set-up
	RecallFloor  float64 // the run is incorrect below this (1 = exact)
}

// Writer is mixed.rw's write traffic: every Tick one insert of Insert new
// rows followed by one delete of Delete ids that exist.
type Writer struct {
	Tick   time.Duration
	Insert int
	Delete int
}

const (
	attrUpper  = 10000 // attribute domain [0, attrUpper)
	ingestRows = 4096  // rows per insert request = the engine's FlushRows
	queryPool  = 2048  // distinct generated searches a loop cycles through
	tracedReqs = 500   // requests the traced pass replays
	sliceCount = 4     // slices of the window p99_ms is the median over
)

// filterShares is the cycle of filter widths, as shares of the domain.
var filterShares = []float64{0.01, 0.10, 0.50}

// workloads are the six scenarios at the sizes that fit a 2-core shared
// box inside the driver's time cap; README.md has the sizing history.
var workloads = []Workload{
	{
		Name: "scan.flat",
		Why:  "FLAT scan of 65,536x128: vec kernels and index.ScanBlocked are the query, so REST/plan/batch changes must not move it and kernel changes move it fully",
		Rows: 65536, Dim: 128, Data: "siftlike", Index: "FLAT", K: 10,
		RecallSample: 32, RecallFloor: 1,
	},
	{
		Name: "probe.c1",
		Why:  "tiny IVF probe (32,768x32, nprobe 4/128, k=100), one client: JSON, routing and core fixed overhead are the query; where non-kernel savings show",
		Rows: 32768, Dim: 32, Data: "uniform", Index: "IVF_FLAT", Nlist: 128, Nprobe: 4, K: 100,
		Clients:      1,
		RecallSample: 256, RecallFloor: 0.20,
	},
	{
		Name: "probe.cN",
		Why:  "same probe with N concurrent clients: engages batchform windows, exec admission and pool sharing, which one client never touches",
		Rows: 32768, Dim: 32, Data: "uniform", Index: "IVF_FLAT", Nlist: 128, Nprobe: 4, K: 100,
		RecallSample: 256, RecallFloor: 0.20,
	},
	{
		Name: "tiered.over4x",
		Why:  "tiered IVF with a block cache a quarter of the vector payload: blockcache misses and extent reads dominate; every other workload bypasses the cache",
		Rows: 32768, Dim: 64, Data: "uniform", Index: "IVF_FLAT", Nlist: 64, Nprobe: 8, K: 10,
		CacheDiv:     4,
		RecallSample: 256, RecallFloor: 0.40,
	},
	{
		Name: "mixed.rw",
		Why:  "open loop: range-filtered searches (1/10/50 % widths) at a fixed Poisson rate beside a writer inserting and deleting, so WAL, flush and merge stalls are charged to queued reads",
		Rows: 32768, Dim: 64, Data: "uniform", Attr: true, Index: "IVF_FLAT", Nlist: 64, Nprobe: 8, K: 10,
		Filter: true, OpenLoop: true, Rate: 200,
		Writer:       &Writer{Tick: 64 * time.Millisecond, Insert: 128, Delete: 32},
		RecallSample: 256, RecallFloor: 0.25,
	},
	{
		Name: "cluster.filtered",
		Why:  "in-process cluster (writer + 2 readers) with range-filtered searches: the reader pipeline (own cache, closure filter, no pool or planner) that the single-read-path refactor must hold",
		Rows: 32768, Dim: 64, Data: "uniform", Attr: true, Index: "IVF_FLAT", K: 10,
		Cluster: true, Filter: true,
		RecallSample: 256, RecallFloor: 0.22,
	},
}

// quickSized shrinks a workload for -quick: tiny data, the same shape.
func quickSized(w Workload) Workload {
	w.Rows = 2 * ingestRows
	if w.Dim > 32 {
		w.Dim = 32
	}
	if w.Nlist > 16 {
		w.Nlist = 16
	}
	if w.K > 10 {
		w.K = 10
	}
	if w.Filter {
		// Probe every bucket: at 8,192 rows a 1 % filter leaves too few
		// matches for a sample of the buckets to hold any.
		w.Nprobe = 4096
	}
	w.RecallSample = 16
	if w.RecallFloor < 1 {
		w.RecallFloor = 0.05
	}
	return w
}

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
