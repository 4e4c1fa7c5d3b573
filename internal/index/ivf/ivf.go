// Package ivf implements the quantization-based index family of Sec. 3.1:
// IVF_FLAT, IVF_SQ8 and IVF_PQ. All three share the same coarse quantizer —
// a K-means codebook clustering vectors into nlist buckets — and differ only
// in the fine quantizer used inside each bucket:
//
//	IVF_FLAT — original float vectors
//	IVF_SQ8  — 1-byte-per-dimension scalar quantization (4× smaller)
//	IVF_PQ   — product quantization (M bytes per vector)
//
// Query processing follows the paper's two steps: (1) rank bucket centroids
// against the query and keep the nprobe closest; (2) scan each probed bucket
// with the fine quantizer's distance. nprobe trades accuracy for speed.
package ivf

import (
	"fmt"
	"math"

	"vectordb/internal/bufferpool"
	"vectordb/internal/index"
	"vectordb/internal/kmeans"
	"vectordb/internal/quantizer"
	"vectordb/internal/topk"
	"vectordb/internal/vec"
)

// Fine identifies the fine quantizer.
type Fine int

const (
	FineFlat Fine = iota
	FineSQ8
	FinePQ
)

func (f Fine) name() string {
	switch f {
	case FineFlat:
		return "IVF_FLAT"
	case FineSQ8:
		return "IVF_SQ8"
	case FinePQ:
		return "IVF_PQ"
	}
	return "IVF_?"
}

func init() {
	for _, f := range []Fine{FineFlat, FineSQ8, FinePQ} {
		fine := f
		index.Register(fine.name(), func(metric vec.Metric, dim int, params map[string]string) (index.Builder, error) {
			return NewBuilderFromParams(fine, metric, dim, params)
		})
	}
}

// Builder builds IVF indexes.
type Builder struct {
	Fine    Fine
	Metric  vec.Metric
	Dim     int
	Nlist   int // coarse buckets; 0 = auto (≈ n/64, clamped to [1, 4096])
	Nprobe  int // default probe count; 0 = max(1, Nlist/16)
	PQM     int // IVF_PQ: sub-quantizers; 0 = auto (largest divisor of dim ≤ dim/2 and ≤ 16)
	PQKs    int // IVF_PQ: centroids per sub-space; 0 = 256
	MaxIter int // K-means iterations
	Seed    int64
}

// NewBuilderFromParams parses the registry string parameters
// (nlist, nprobe, m, ks, iter, seed).
func NewBuilderFromParams(fine Fine, metric vec.Metric, dim int, params map[string]string) (*Builder, error) {
	b := &Builder{Fine: fine, Metric: metric, Dim: dim}
	var err error
	if b.Nlist, err = index.ParamInt(params, "nlist", 0); err != nil {
		return nil, err
	}
	if b.Nprobe, err = index.ParamInt(params, "nprobe", 0); err != nil {
		return nil, err
	}
	if b.PQM, err = index.ParamInt(params, "m", 0); err != nil {
		return nil, err
	}
	if b.PQKs, err = index.ParamInt(params, "ks", 0); err != nil {
		return nil, err
	}
	if b.MaxIter, err = index.ParamInt(params, "iter", 10); err != nil {
		return nil, err
	}
	seed, err := index.ParamInt(params, "seed", 1)
	if err != nil {
		return nil, err
	}
	b.Seed = int64(seed)
	if metric.Binary() {
		return nil, fmt.Errorf("ivf: %s does not support binary metric %v", fine.name(), metric)
	}
	return b, nil
}

func autoNlist(n int) int {
	nl := n / 64
	if nl < 1 {
		nl = 1
	}
	if nl > 4096 {
		nl = 4096
	}
	return nl
}

func autoPQM(dim int) int {
	for _, m := range []int{16, 8, 4, 2, 1} {
		if m <= dim/2 && dim%m == 0 {
			return m
		}
	}
	return 1
}

// Build trains the coarse (and fine) quantizers and assigns every vector to
// its bucket. The inverted lists are laid out in CSR form by a counting
// sort on the assignment, so each bucket keeps its rows in build order.
func (b *Builder) Build(data []float32, ids []int64) (index.Index, error) {
	n, err := index.ValidateBuildInput(data, ids, b.Dim)
	if err != nil {
		return nil, err
	}
	ids = index.IDsOrDefault(ids, n)
	nlist := b.Nlist
	if nlist <= 0 {
		nlist = autoNlist(n)
	}
	if nlist > n {
		nlist = n
	}
	iter := b.MaxIter
	if iter <= 0 {
		iter = 10
	}
	seed := b.Seed
	if seed == 0 {
		seed = 1
	}
	coarse, err := kmeans.Train(data, b.Dim, kmeans.Config{K: nlist, MaxIter: iter, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("ivf: coarse quantizer: %w", err)
	}

	idx := &IVF{
		fine:      b.Fine,
		metric:    b.Metric,
		dim:       b.Dim,
		nlist:     nlist,
		coarse:    coarse,
		nprobeDef: b.Nprobe,
		size:      n,
	}
	if idx.nprobeDef <= 0 {
		idx.nprobeDef = nlist / 16
		if idx.nprobeDef < 1 {
			idx.nprobeDef = 1
		}
	}

	switch b.Fine {
	case FineSQ8:
		idx.sq8, err = quantizer.TrainSQ8(data, b.Dim)
		if err != nil {
			return nil, fmt.Errorf("ivf: sq8: %w", err)
		}
	case FinePQ:
		m := b.PQM
		if m <= 0 {
			m = autoPQM(b.Dim)
		}
		ks := b.PQKs
		if ks <= 0 {
			ks = 256
		}
		if ks > n {
			ks = n
		}
		idx.pq, err = quantizer.TrainPQ(data, b.Dim, quantizer.PQConfig{M: m, Ks: ks, MaxIter: iter, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("ivf: pq: %w", err)
		}
	}

	assign := make([]int, n)
	coarse.AssignAll(data, assign)
	idx.starts = make([]int32, nlist+1)
	for _, c := range assign {
		idx.starts[c+1]++
	}
	for c := 0; c < nlist; c++ {
		idx.starts[c+1] += idx.starts[c]
	}
	next := append([]int32(nil), idx.starts[:nlist]...)
	idx.ids = make([]int64, n)
	idx.pos = make([]int32, n)
	var res resident
	cs := idx.rowWidth()
	if b.Fine == FineFlat {
		res.floats = make([]float32, n*cs)
	} else {
		res.codes = make([]byte, n*cs)
	}
	for i, c := range assign {
		r := int(next[c])
		next[c]++
		idx.ids[r] = ids[i]
		idx.pos[r] = int32(i)
		row := data[i*b.Dim : (i+1)*b.Dim]
		switch b.Fine {
		case FineFlat:
			copy(res.floats[r*cs:], row)
		case FineSQ8:
			idx.sq8.Encode(row, res.codes[r*cs:(r+1)*cs])
		case FinePQ:
			idx.pq.Encode(row, res.codes[r*cs:(r+1)*cs])
		}
	}
	idx.payload = res
	return idx, nil
}

// IVF is a built inverted-file index. Its inverted lists are one CSR
// layout: bucket b is rows [starts[b], starts[b+1]) of ids, pos and the
// fine payload, which concatenates the buckets in bucket order. The
// payload is the same array whether it is resident or mapped out of core;
// only its provider differs.
type IVF struct {
	fine      Fine
	metric    vec.Metric
	dim       int
	nlist     int
	coarse    *kmeans.Result
	starts    []int32 // nlist+1 row offsets
	ids       []int64
	pos       []int32    // build-order row position of each entry (bitset pushdown)
	payload   PayloadExt // FineFlat vectors, else codes: resident, or pinned per sweep
	sq8       *quantizer.SQ8
	pq        *quantizer.PQ
	nprobeDef int
	size      int
}

// bucket returns bucket b's rows of a CSR array whose rows are width
// elements wide: ids and pos (width 1), or the payload (width rowWidth).
func bucket[T any](a []T, starts []int32, b, width int) []T {
	return a[int(starts[b])*width : int(starts[b+1])*width]
}

// rowWidth is one payload row's length: dim floats for FineFlat, the code
// size in bytes otherwise.
func (x *IVF) rowWidth() int {
	switch x.fine {
	case FineSQ8:
		return x.sq8.CodeSize()
	case FinePQ:
		return x.pq.CodeSize()
	}
	return x.dim
}

// Name implements index.Index.
func (x *IVF) Name() string { return x.fine.name() }

// Metric implements index.Index.
func (x *IVF) Metric() vec.Metric { return x.metric }

// Dim implements index.Index.
func (x *IVF) Dim() int { return x.dim }

// Size implements index.Index.
func (x *IVF) Size() int { return x.size }

// Nlist returns the number of coarse buckets.
func (x *IVF) Nlist() int { return x.nlist }

// MemoryBytes implements index.Index.
func (x *IVF) MemoryBytes() int64 {
	b := int64(len(x.coarse.Centroids))*4 + int64(len(x.ids))*8
	if r, ok := x.payload.(resident); ok {
		b += int64(len(r.floats))*4 + int64(len(r.codes))
	}
	return b
}

// CodeBytesPerVector returns the fine-quantized size of one vector, used by
// the GPU cost model.
func (x *IVF) CodeBytesPerVector() int {
	if x.fine == FineFlat {
		return x.dim * 4
	}
	return x.rowWidth()
}

// ProbeOrder ranks bucket indices by centroid distance to query (step 1 of
// Sec. 3.1) and returns the nprobe closest. The centroid table is one
// contiguous matrix, so the ranking is the shared blocked scan into a
// pooled nprobe heap.
func (x *IVF) ProbeOrder(query []float32, nprobe int) []int {
	if nprobe <= 0 {
		nprobe = x.nprobeDef
	}
	if nprobe > x.nlist {
		nprobe = x.nlist
	}
	h := topk.GetHeap(nprobe)
	index.ScanBlocked(h, x.metric, query, x.coarse.Centroids, x.dim, nil, index.Selection{})
	rs := h.Results()
	topk.PutHeap(h)
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = int(r.ID)
	}
	return out
}

// SQ8ScanQuery builds the fused per-query ADC table for SQ8 buckets under
// the index metric (squared L2 or negated IP). Build it once per query and
// pass it to ScanBucketSQ8 for every probed bucket.
func (x *IVF) SQ8ScanQuery(query []float32) *quantizer.SQ8Query {
	return x.sq8.Query(query, x.metric == vec.IP)
}

// ScanBucketSQ8 scans one SQ8 bucket with a prebuilt fused table: distances
// come straight off the code bytes, resident or served out of core, gated
// on the heap's worst distance like every other scan path.
func (x *IVF) ScanBucketSQ8(sq *quantizer.SQ8Query, b int, sel index.Selection, h *topk.Heap) error {
	codes, release, err := x.payload.OpenBytes()
	if err != nil {
		return err
	}
	x.scanSQ8(codes, sq, b, sel, h)
	release()
	return nil
}

// scanFlat is the one IVF_FLAT bucket scan: bucket b's rows of the opened
// payload run through the shared blocked scan with the selection pushed
// beneath it.
func (x *IVF) scanFlat(payload []float32, query []float32, b int, sel index.Selection, h *topk.Heap) {
	if sel.Bits != nil {
		sel.Pos = bucket(x.pos, x.starts, b, 1)
	}
	index.ScanBlocked(h, x.metric, query, bucket(payload, x.starts, b, x.dim), x.dim, bucket(x.ids, x.starts, b, 1), sel)
}

// scanSQ8 is the one IVF_SQ8 bucket scan: distances are computed directly
// over bucket b's code bytes through the fused table (two FMAs per
// dimension, no dequantized floats), one 256-row block of the bucket at a
// time, and each block is offered to the heap whole. Unfiltered blocks go
// through DistanceBatch; filtered ones score their survivors one by one.
func (x *IVF) scanSQ8(payload []byte, sq *quantizer.SQ8Query, b int, sel index.Selection, h *topk.Heap) {
	cs := x.rowWidth()
	if sel.Bits == nil {
		ids, codes := bucket(x.ids, x.starts, b, 1), bucket(payload, x.starts, b, cs)
		bp := bufferpool.GetFloats(index.ScanBlockRows)
		for i0 := 0; i0 < len(ids); i0 += index.ScanBlockRows {
			i1 := min(i0+index.ScanBlockRows, len(ids))
			sq.DistanceBatch(codes[i0*cs:i1*cs], *bp)
			h.Offer((*bp)[:i1-i0], ids, i0)
		}
		bufferpool.PutFloats(bp)
		return
	}
	x.scanRows(payload, b, sel, h, sq.Distance)
}

func (x *IVF) pqTable(query []float32) *quantizer.ADCTable {
	if x.metric == vec.IP {
		return x.pq.IPTable(query)
	}
	return x.pq.L2Table(query)
}

// scanRows scores bucket b's code rows one by one with dist (a PQ ADC
// table's, or a filtered SQ8 bucket's fused table), the rows sel drops as
// NaN, and offers them to the heap a 256-row block at a time.
func (x *IVF) scanRows(payload []byte, b int, sel index.Selection, h *topk.Heap, dist func([]byte) float32) {
	ids, pos := bucket(x.ids, x.starts, b, 1), bucket(x.pos, x.starts, b, 1)
	cs := x.rowWidth()
	codes := bucket(payload, x.starts, b, cs)
	bp := bufferpool.GetFloats(index.ScanBlockRows)
	for i0 := 0; i0 < len(ids); i0 += index.ScanBlockRows {
		ds := (*bp)[:min(index.ScanBlockRows, len(ids)-i0)]
		for r := range ds {
			if i := i0 + r; sel.Bits == nil || sel.Bits.Test(int(pos[i])) {
				ds[r] = dist(codes[i*cs : (i+1)*cs])
			} else {
				ds[r] = float32(math.NaN())
			}
		}
		h.Offer(ds, ids, i0)
	}
	bufferpool.PutFloats(bp)
}

// Search implements index.Index through SearchInto on a pooled heap; a
// payload that cannot be opened answers no results (SearchInto reports it).
func (x *IVF) Search(query []float32, p index.SearchParams) []topk.Result {
	h := topk.GetHeap(p.K)
	defer topk.PutHeap(h)
	if x.SearchInto(h, query, p) != nil {
		return nil
	}
	return h.Results()
}

// SearchInto probes the query's nearest buckets (p.Probes when the caller
// already ranked them), pushing every candidate into h, a caller-owned
// heap that may already hold other segments' results: its worst distance
// prunes the bucket scans from the first row. Per-query ADC tables (SQ8
// fused, PQ) are built once and reused across all probed buckets. The
// payload is opened once for the whole probe sweep, so a mapped payload is
// pinned (and its segment promoted) once per query rather than once per
// bucket. A pushed bitset is read only at the probed buckets' positions;
// each IVF_FLAT block of a bucket runs masked or gathered by the share of
// its own rows that pass. A payload that cannot be opened is the search's
// error, and nothing is pushed.
func (x *IVF) SearchInto(h *topk.Heap, query []float32, p index.SearchParams) error {
	probes := p.Probes
	if probes == nil {
		probes = x.ProbeOrder(query, p.Nprobe)
	}
	sel := index.Selection{Bits: p.Bits}
	if x.fine == FineFlat {
		rows, release, err := x.payload.OpenFloats()
		if err != nil {
			return err
		}
		for _, b := range probes {
			x.scanFlat(rows, query, b, sel, h)
		}
		release()
		return nil
	}
	codes, release, err := x.payload.OpenBytes()
	if err != nil {
		return err
	}
	if x.fine == FinePQ {
		tab := x.pqTable(query)
		for _, b := range probes {
			x.scanRows(codes, b, sel, h, tab.Distance)
		}
	} else {
		sq := x.SQ8ScanQuery(query)
		for _, b := range probes {
			x.scanSQ8(codes, sq, b, sel, h)
		}
	}
	release()
	return nil
}

// ProbedPositions appends the build positions of the probed buckets' rows
// to dst: the only bits of SearchParams.Bits a search over probes reads.
func (x *IVF) ProbedPositions(dst []int32, probes []int) []int32 {
	for _, b := range probes {
		dst = append(dst, bucket(x.pos, x.starts, b, 1)...)
	}
	return dst
}

// BucketIDs exposes the row IDs of a bucket (GPU scheduling, tests).
func (x *IVF) BucketIDs(b int) []int64 { return bucket(x.ids, x.starts, b, 1) }

// BucketLen returns the population of a bucket.
func (x *IVF) BucketLen(b int) int { return int(x.starts[b+1] - x.starts[b]) }

// Centroid exposes coarse centroid c (used by the SQ8H GPU step).
func (x *IVF) Centroid(c int) []float32 { return x.coarse.Centroid(c) }
