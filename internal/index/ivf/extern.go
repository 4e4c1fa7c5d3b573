package ivf

import (
	"fmt"
)

// Payload externalization: a built IVF index's dominant memory is its fine
// payload — the bucket-ordered vectors (IVF_FLAT) or SQ8 codes (IVF_SQ8).
// On out-of-core segments that payload moves into a build-order extent file
// and bucket scans read it through a PayloadExt provider instead of
// resident slices; the coarse centroids, bucket ID lists and build
// positions stay hot (they are a small fraction of the payload and drive
// probe ranking and filter pushdown). Each bucket occupies the contiguous
// row range [starts[b], starts[b]+len(ids[b])) of the payload, so a bucket
// scan is the resident scan over a subslice of it.

// PayloadExt provides out-of-core access to an index's build-order fine
// payload. Each Open call pins the payload for one sweep of bucket scans
// and returns it whole with its release: the slice is valid until the
// release runs, and the caller must run it on all paths.
type PayloadExt interface {
	// OpenFloats pins the FineFlat vectors, size × dim floats.
	OpenFloats() ([]float32, func(), error)
	// OpenBytes pins the FineSQ8 codes, size × CodeSize bytes.
	OpenBytes() ([]byte, func(), error)
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
			out = append(out, v...)
		}
		return out, nil, true
	case FineSQ8:
		out := make([]byte, 0, x.size*x.sq8.CodeSize())
		for _, c := range x.codes {
			out = append(out, c...)
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
// sweep's bucket method slices bucket b out of it — the resident bucket
// itself, or b's rows of the payload the provider pinned for the sweep.
// The sweep's close releases the payload; no bucket view outlives it.

// flatRows is an IVF_FLAT payload opened for a sweep of bucket scans.
type flatRows struct {
	x       *IVF
	payload []float32 // the pinned build-order payload; unused when resident
	release func()
}

// openFlat opens the FLAT bucket rows for one sweep; close them after it.
func (x *IVF) openFlat() (flatRows, error) {
	if x.ext == nil {
		return flatRows{x: x}, nil
	}
	payload, release, err := x.ext.OpenFloats()
	return flatRows{x: x, payload: payload, release: release}, err
}

func (r flatRows) bucket(b int) []float32 {
	if r.x.ext == nil {
		return r.x.vecs[b]
	}
	s := int(r.x.starts[b]) * r.x.dim
	return r.payload[s : s+len(r.x.ids[b])*r.x.dim]
}

func (r flatRows) close() {
	if r.release != nil {
		r.release()
	}
}

// sq8Rows is an IVF_SQ8 payload opened for a sweep of bucket scans.
type sq8Rows struct {
	x       *IVF
	payload []byte // the pinned build-order codes; unused when resident
	release func()
}

// openSQ8 opens the SQ8 bucket codes for one sweep; close them after it.
func (x *IVF) openSQ8() (sq8Rows, error) {
	if x.ext == nil {
		return sq8Rows{x: x}, nil
	}
	payload, release, err := x.ext.OpenBytes()
	return sq8Rows{x: x, payload: payload, release: release}, err
}

func (r sq8Rows) bucket(b int) []byte {
	if r.x.ext == nil {
		return r.x.codes[b]
	}
	cs := r.x.sq8.CodeSize()
	s := int(r.x.starts[b]) * cs
	return r.payload[s : s+len(r.x.ids[b])*cs]
}

func (r sq8Rows) close() {
	if r.release != nil {
		r.release()
	}
}
