package ivf

import (
	"fmt"
	"math"

	"vectordb/internal/bufferpool"
	"vectordb/internal/index"
	"vectordb/internal/quantizer"
	"vectordb/internal/topk"
)

// Payload externalization: a built IVF index's dominant memory is its fine
// payload — the bucket-ordered vectors (IVF_FLAT) or SQ8 codes (IVF_SQ8).
// On out-of-core segments that payload moves into a build-order extent file
// and bucket scans pull 256-row blocks through a PayloadExt provider
// instead of walking resident slices; the coarse centroids, bucket ID
// lists and build positions stay hot (they are a small fraction of the
// payload and drive probe ranking and filter pushdown). Each bucket
// occupies the contiguous row range [starts[b], starts[b]+len(ids[b])) of
// the payload, so a bucket scan is a RangeSource over the shared extent.

// PayloadExt provides out-of-core access to an index's build-order fine
// payload. Implementations open a fresh source per scan; every returned
// source must be Released by the caller on all paths.
type PayloadExt interface {
	// OpenFloats returns the FineFlat vectors, size rows × dim.
	OpenFloats() (index.BlockSource, error)
	// OpenBytes returns the FineSQ8 codes, size rows × CodeSize bytes.
	OpenBytes() (index.ByteBlockSource, error)
}

// Externalizable reports whether this index's fine payload can move out of
// core: FLAT vectors and SQ8 codes. PQ codes are already ~dim/4 bytes per
// vector and their random-access ADC scans defeat block locality, so they
// stay resident.
func (x *IVF) Externalizable() bool {
	return x.fine == FineFlat || x.fine == FineSQ8
}

// Externalized reports whether the fine payload is served by a provider.
func (x *IVF) Externalized() bool { return x.ext != nil }

// ResidentPayload returns the bucket-concatenated build-order fine payload
// while it is still resident: FLAT yields size×dim floats, SQ8 yields
// size×CodeSize code bytes. ok=false for PQ or already-externalized
// indexes.
func (x *IVF) ResidentPayload() (floats []float32, codes []byte, ok bool) {
	if x.ext != nil {
		return nil, nil, false
	}
	switch x.fine {
	case FineFlat:
		out := make([]float32, 0, x.size*x.dim)
		for b := range x.vecs {
			out = append(out, x.vecs[b]...)
		}
		return out, nil, true
	case FineSQ8:
		out := make([]byte, 0, x.size*x.sq8.CodeSize())
		for b := range x.codes {
			out = append(out, x.codes[b]...)
		}
		return nil, out, true
	}
	return nil, nil, false
}

// Externalize returns a copy of x whose fine payload is served by ext; the
// receiver is left untouched so in-flight scans of the resident payload
// stay valid (callers swap the copy in atomically, e.g. via SetIndex). The
// copy shares the coarse quantizer, bucket IDs and positions with x.
func (x *IVF) Externalize(ext PayloadExt) (*IVF, error) {
	if ext == nil {
		return nil, fmt.Errorf("ivf: nil payload provider")
	}
	if !x.Externalizable() {
		return nil, fmt.Errorf("ivf: %s payload cannot be externalized", x.fine.name())
	}
	if x.ext != nil {
		return nil, fmt.Errorf("ivf: index already externalized")
	}
	y := *x
	starts := make([]int32, x.nlist)
	run := int32(0)
	for b := 0; b < x.nlist; b++ {
		starts[b] = run
		run += int32(len(x.ids[b]))
	}
	y.starts = starts
	y.ext = ext
	y.vecs, y.codes = nil, nil
	return &y, nil
}

// keepOpen wraps a scan-shared BlockSource so per-bucket RangeSources can
// Release (returning their stitch scratch) without closing the parent; the
// caller releases the parent once after the last bucket.
type keepOpen struct{ index.BlockSource }

func (keepOpen) Release() {}

type keepOpenBytes struct{ index.ByteBlockSource }

func (keepOpenBytes) Release() {}

// scanBucketFlatSrc scans one FLAT bucket out of core: the bucket's row
// range of the shared build-order payload goes through the same blocked
// kernels as the resident path (ScanBlockedSource produces the identical
// result heap by the one-sided early-abandon contract).
func (x *IVF) scanBucketFlatSrc(src index.BlockSource, query []float32, bucket int, sel index.Selection, h *topk.Heap) {
	if len(x.ids[bucket]) == 0 {
		return
	}
	rs := index.RangeSource{Src: keepOpen{src}, Start: int(x.starts[bucket]), N: len(x.ids[bucket])}
	index.ScanBlockedSource(h, x.metric, query, &rs, x.ids[bucket], sel)
	rs.Release()
}

// scanBucketSQ8Src is ScanBucketSQ8 over an out-of-core code extent: the
// same per-row selection order, fused-table distances and worst-distance
// gating as the resident path, one aligned code block at a time. Filtered
// blocks whose rows are all excluded are never fetched.
func (x *IVF) scanBucketSQ8Src(sq *quantizer.SQ8Query, src index.ByteBlockSource, bucket int, sel index.Selection, h *topk.Heap) {
	ids := x.ids[bucket]
	if len(ids) == 0 {
		return
	}
	rs := index.ByteRangeSource{Src: keepOpenBytes{src}, Start: int(x.starts[bucket]), N: len(ids)}
	cs := x.sq8.CodeSize()
	worst := float32(math.Inf(1))
	if w, ok := h.Worst(); ok && h.Full() {
		worst = w
	}
	if sel.Bits != nil {
		pos := x.pos[bucket]
		for i0 := 0; i0 < len(ids); i0 += index.ScanBlockRows {
			i1 := i0 + index.ScanBlockRows
			if i1 > len(ids) {
				i1 = len(ids)
			}
			var blk []byte
			for i := i0; i < i1; i++ {
				if !sel.Bits.Test(int(pos[i])) {
					continue
				}
				if blk == nil {
					blk = rs.Block(i0, i1)
				}
				d := sq.Distance(blk[(i-i0)*cs : (i-i0+1)*cs])
				if d >= worst {
					continue
				}
				h.Push(ids[i], d)
				if h.Full() {
					worst, _ = h.Worst()
				}
			}
		}
		rs.Release()
		return
	}
	bp := bufferpool.GetFloats(index.ScanBlockRows)
	buf := *bp
	for i0 := 0; i0 < len(ids); i0 += index.ScanBlockRows {
		i1 := i0 + index.ScanBlockRows
		if i1 > len(ids) {
			i1 = len(ids)
		}
		blk := rs.Block(i0, i1)
		sq.DistanceBatch(blk, buf)
		for r := 0; r < i1-i0; r++ {
			d := buf[r]
			if d >= worst {
				continue
			}
			h.Push(ids[i0+r], d)
			if h.Full() {
				worst, _ = h.Worst()
			}
		}
	}
	bufferpool.PutFloats(bp)
	rs.Release()
}
