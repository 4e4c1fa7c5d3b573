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
// its bucket.
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
		ids:       make([][]int64, nlist),
		pos:       make([][]int32, nlist),
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
	case FineFlat:
		idx.vecs = make([][]float32, nlist)
	case FineSQ8:
		idx.sq8, err = quantizer.TrainSQ8(data, b.Dim)
		if err != nil {
			return nil, fmt.Errorf("ivf: sq8: %w", err)
		}
		idx.codes = make([][]byte, nlist)
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
		idx.codes = make([][]byte, nlist)
	}

	assign := make([]int, n)
	coarse.AssignAll(data, assign)
	for i, c := range assign {
		row := data[i*b.Dim : (i+1)*b.Dim]
		idx.ids[c] = append(idx.ids[c], ids[i])
		idx.pos[c] = append(idx.pos[c], int32(i))
		switch b.Fine {
		case FineFlat:
			idx.vecs[c] = append(idx.vecs[c], row...)
		case FineSQ8:
			idx.codes[c] = append(idx.codes[c], idx.sq8.Encode(row, nil)...)
		case FinePQ:
			idx.codes[c] = append(idx.codes[c], idx.pq.Encode(row, nil)...)
		}
	}
	return idx, nil
}

// IVF is a built inverted-file index.
type IVF struct {
	fine      Fine
	metric    vec.Metric
	dim       int
	nlist     int
	coarse    *kmeans.Result
	ids       [][]int64
	pos       [][]int32   // build-order row position of each bucket entry (bitset pushdown)
	vecs      [][]float32 // FineFlat: each bucket's rows
	codes     [][]byte    // FineSQ8 / FinePQ: each bucket's codes
	sq8       *quantizer.SQ8
	pq        *quantizer.PQ
	nprobeDef int
	size      int

	// ext, when non-nil, serves the fine payload out of core: vecs/codes
	// are nil and bucket scans read the payload the provider pins. starts[b]
	// is bucket b's first row within the build-order payload extent.
	ext    PayloadExt
	starts []int32
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
	var b int64
	b += int64(len(x.coarse.Centroids)) * 4
	for _, l := range x.ids {
		b += int64(len(l)) * 8
	}
	for _, v := range x.vecs {
		b += int64(len(v)) * 4
	}
	for _, c := range x.codes {
		b += int64(len(c))
	}
	return b
}

// CodeBytesPerVector returns the fine-quantized size of one vector, used by
// the GPU cost model.
func (x *IVF) CodeBytesPerVector() int {
	switch x.fine {
	case FineFlat:
		return x.dim * 4
	case FineSQ8:
		return x.sq8.CodeSize()
	case FinePQ:
		return x.pq.CodeSize()
	}
	return 0
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

// ScanBucket scans one bucket (step 2 of Sec. 3.1), pushing candidates that
// survive sel into h. sel's Pos field is overwritten with this bucket's
// build-order positions, so callers only populate Bits/Force. FLAT
// buckets go through the shared blocked batch kernels with the selection
// pushed beneath them; SQ8 and PQ buckets build their per-query ADC tables
// lazily here — callers scanning many buckets for one query (Search,
// SQ8H) should build the table once via SQ8ScanQuery/ScanBucketSQ8 instead.
func (x *IVF) ScanBucket(query []float32, bucket int, sel index.Selection, h *topk.Heap) {
	switch x.fine {
	case FineFlat:
		if rows, err := x.openFlat(); err == nil {
			x.scanFlat(rows, query, bucket, sel, h)
			rows.close()
		}
	case FineSQ8:
		x.ScanBucketSQ8(x.SQ8ScanQuery(query), bucket, sel, h)
	case FinePQ:
		x.scanBucketPQ(x.pqTable(query), bucket, sel, h)
	}
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
func (x *IVF) ScanBucketSQ8(sq *quantizer.SQ8Query, bucket int, sel index.Selection, h *topk.Heap) {
	if rows, err := x.openSQ8(); err == nil {
		x.scanSQ8(rows, sq, bucket, sel, h)
		rows.close()
	}
}

// scanFlat is the one IVF_FLAT bucket scan: the bucket's rows run through
// the shared blocked scan with the selection pushed beneath it.
func (x *IVF) scanFlat(rows flatRows, query []float32, bucket int, sel index.Selection, h *topk.Heap) {
	if sel.Bits != nil {
		// Bucket positions are appended in build order, so the scan
		// may use the sorted-span block skip.
		sel.Pos, sel.PosSorted = x.pos[bucket], true
	}
	index.ScanBlocked(h, x.metric, query, rows.bucket(bucket), x.dim, x.ids[bucket], sel)
}

// scanSQ8 is the one IVF_SQ8 bucket scan: distances are computed directly
// over the code bytes through the fused table (two FMAs per dimension, no
// dequantized floats), one 256-row block of the bucket at a time, gated on
// the heap's worst distance like every other scan path. Unfiltered blocks
// go through DistanceBatch into a pooled buffer; filtered ones score their
// survivors one by one.
func (x *IVF) scanSQ8(rows sq8Rows, sq *quantizer.SQ8Query, bucket int, sel index.Selection, h *topk.Heap) {
	ids, pos := x.ids[bucket], x.pos[bucket]
	codes := rows.bucket(bucket)
	cs := x.sq8.CodeSize()
	worst := float32(math.Inf(1))
	if w, ok := h.Worst(); ok && h.Full() {
		worst = w
	}
	bp := bufferpool.GetFloats(index.ScanBlockRows)
	buf := *bp
	for i0 := 0; i0 < len(ids); i0 += index.ScanBlockRows {
		i1 := min(i0+index.ScanBlockRows, len(ids))
		if sel.Bits == nil {
			sq.DistanceBatch(codes[i0*cs:i1*cs], buf)
		}
		for i := i0; i < i1; i++ {
			var d float32
			if sel.Bits == nil {
				d = buf[i-i0]
			} else {
				if !sel.Bits.Test(int(pos[i])) {
					continue
				}
				d = sq.Distance(codes[i*cs : (i+1)*cs])
			}
			if d >= worst {
				continue
			}
			h.Push(ids[i], d)
			if h.Full() {
				worst, _ = h.Worst()
			}
		}
	}
	bufferpool.PutFloats(bp)
}

func (x *IVF) pqTable(query []float32) *quantizer.ADCTable {
	if x.metric == vec.IP {
		return x.pq.IPTable(query)
	}
	return x.pq.L2Table(query)
}

func (x *IVF) scanBucketPQ(tab *quantizer.ADCTable, bucket int, sel index.Selection, h *topk.Heap) {
	ids := x.ids[bucket]
	codes := x.codes[bucket]
	cs := x.pq.CodeSize()
	pos := x.pos[bucket]
	for i, id := range ids {
		if sel.Bits != nil && !sel.Bits.Test(int(pos[i])) {
			continue
		}
		h.Push(id, tab.Distance(codes[i*cs:(i+1)*cs]))
	}
}

// Search implements index.Index through SearchInto on a pooled heap.
func (x *IVF) Search(query []float32, p index.SearchParams) []topk.Result {
	h := topk.GetHeap(p.K)
	x.SearchInto(h, query, p)
	out := h.Results()
	topk.PutHeap(h)
	return out
}

// SearchInto probes the query's nearest buckets, pushing every candidate
// into h, a caller-owned heap that may already hold other segments'
// results: its worst distance prunes the bucket scans from the first row.
// Per-query ADC tables (SQ8 fused, PQ) are built once and reused across
// all probed buckets. Externalized indexes open the payload once for the
// whole probe sweep so the mapping is pinned (and the segment promoted)
// once per query rather than once per bucket.
func (x *IVF) SearchInto(h *topk.Heap, query []float32, p index.SearchParams) {
	probes := x.ProbeOrder(query, p.Nprobe)
	sel := x.selection(p)
	switch x.fine {
	case FinePQ:
		tab := x.pqTable(query)
		for _, b := range probes {
			x.scanBucketPQ(tab, b, sel, h)
		}
	case FineSQ8:
		if rows, err := x.openSQ8(); err == nil {
			sq := x.SQ8ScanQuery(query)
			for _, b := range probes {
				x.scanSQ8(rows, sq, b, sel, h)
			}
			rows.close()
		}
	default:
		if rows, err := x.openFlat(); err == nil {
			for _, b := range probes {
				x.scanFlat(rows, query, b, sel, h)
			}
			rows.close()
		}
	}
}

// selection builds the per-query pushed selection. The dense/sparse mode is
// decided once per query from the bitset's global selectivity — counting per
// bucket would cost a popcount per probe for the same answer in expectation.
func (x *IVF) selection(p index.SearchParams) index.Selection {
	sel := index.Selection{Bits: p.Bits}
	if p.Bits != nil && x.size > 0 {
		sel.Force = index.ChooseFilterMode(p.Bits.Count(), x.size)
	}
	return sel
}

// BucketIDs exposes the row IDs of a bucket (GPU scheduling, tests).
func (x *IVF) BucketIDs(bucket int) []int64 { return x.ids[bucket] }

// BucketLen returns the population of a bucket.
func (x *IVF) BucketLen(bucket int) int { return len(x.ids[bucket]) }

// Centroid exposes coarse centroid c (used by the SQ8H GPU step).
func (x *IVF) Centroid(c int) []float32 { return x.coarse.Centroid(c) }
