package ivf

import (
	"fmt"

	"vectordb/internal/index"
)

// Payload externalization: a built IVF index's dominant memory is its fine
// payload — the bucket-ordered vectors (IVF_FLAT) or SQ8 codes (IVF_SQ8).
// On out-of-core segments that payload moves into a build-order extent file
// and bucket scans pull blocks through a PayloadExt provider instead of
// walking resident slices; the coarse centroids, bucket ID lists and build
// positions stay hot (they are a small fraction of the payload and drive
// probe ranking and filter pushdown). Each bucket occupies the contiguous
// row range [starts[b], starts[b]+len(ids[b])) of the payload, and the
// provider serves that range as a source of its own: its blocks start at
// the bucket's first row, so a cached block is exactly the run a bucket
// scan reads.

// PayloadExt provides out-of-core access to an index's build-order fine
// payload. Implementations open a fresh source per sweep of bucket scans;
// every returned source must be Released by the caller on all paths.
type PayloadExt interface {
	// OpenFloats opens the FineFlat vectors, size rows × dim.
	OpenFloats() (FloatRows, error)
	// OpenBytes opens the FineSQ8 codes, size rows × CodeSize bytes.
	OpenBytes() (ByteRows, error)
}

// FloatRows is an opened FLAT payload that serves one bucket at a time:
// after Bucket(start, n) it is the block source of payload rows
// [start, start+n) — Rows is n, and Block(i0, i1) returns payload rows
// [start+i0, start+i1). A view taken before a Bucket call is dead after it.
type FloatRows interface {
	index.BlockSource
	Bucket(start, n int)
}

// ByteRows is FloatRows over SQ8 code rows.
type ByteRows interface {
	index.ByteBlockSource
	Bucket(start, n int)
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
		for _, v := range x.vecs {
			out = append(out, v.Data...)
		}
		return out, nil, true
	case FineSQ8:
		out := make([]byte, 0, x.size*x.sq8.CodeSize())
		for _, c := range x.codes {
			out = append(out, c.codes...)
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

// Bucket rows. A bucket scan takes its rows from one helper per fine kind:
// openFlat / openSQ8 open the payload for a sweep of bucket scans, and the
// sweep's bucket method serves bucket b either in place — a resident
// bucket is stored as its own block source, so handing it to a scan
// allocates nothing — or as the payload source the provider opened for
// the sweep, pointed at b's rows. The sweep's close releases the payload.

// flatRows is an IVF_FLAT payload opened for a sweep of bucket scans.
type flatRows struct {
	x       *IVF
	payload FloatRows // nil when resident
}

// openFlat opens the FLAT bucket rows for one sweep; close them after it.
func (x *IVF) openFlat() (flatRows, error) {
	if x.ext == nil {
		return flatRows{x: x}, nil
	}
	src, err := x.ext.OpenFloats()
	return flatRows{x: x, payload: src}, err
}

func (r flatRows) bucket(b int) index.BlockSource {
	if r.payload == nil {
		return &r.x.vecs[b]
	}
	r.payload.Bucket(int(r.x.starts[b]), len(r.x.ids[b]))
	return r.payload
}

func (r flatRows) close() {
	if r.payload != nil {
		r.payload.Release()
	}
}

// sq8Rows is an IVF_SQ8 payload opened for a sweep of bucket scans.
type sq8Rows struct {
	x       *IVF
	payload ByteRows // nil when resident
}

// openSQ8 opens the SQ8 bucket codes for one sweep; close them after it.
func (x *IVF) openSQ8() (sq8Rows, error) {
	if x.ext == nil {
		return sq8Rows{x: x}, nil
	}
	src, err := x.ext.OpenBytes()
	return sq8Rows{x: x, payload: src}, err
}

func (r sq8Rows) bucket(b int) index.ByteBlockSource {
	if r.payload == nil {
		return &r.x.codes[b]
	}
	r.payload.Bucket(int(r.x.starts[b]), len(r.x.ids[b]))
	return r.payload
}

func (r sq8Rows) close() {
	if r.payload != nil {
		r.payload.Release()
	}
}

// codeRows is one resident bucket's code rows (SQ8 or PQ), served in place
// as an index.ByteBlockSource.
type codeRows struct {
	codes []byte
	rb    int // bytes per row
}

func (c *codeRows) Rows() int               { return len(c.codes) / c.rb }
func (c *codeRows) RowBytes() int           { return c.rb }
func (c *codeRows) Block(i0, i1 int) []byte { return c.codes[i0*c.rb : i1*c.rb] }
func (c *codeRows) Release()                {}

// flatBuckets and codeBuckets make an index's empty resident buckets.
func flatBuckets(nlist, dim int) []index.SliceSource {
	out := make([]index.SliceSource, nlist)
	for b := range out {
		out[b].D = dim
	}
	return out
}

func codeBuckets(nlist, rb int) []codeRows {
	out := make([]codeRows, nlist)
	for b := range out {
		out[b].rb = rb
	}
	return out
}
