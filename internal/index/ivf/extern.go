package ivf

import (
	"fmt"
)

// Payload providers: a built IVF index's dominant memory is its fine
// payload — the bucket-ordered vectors (IVF_FLAT) or codes (IVF_SQ8,
// IVF_PQ). Every bucket scan reads that one CSR array through a
// PayloadExt: resident, it is the heap array the build or decode filled;
// on out-of-core segments the same bytes move into an extent file and
// the provider pins the mapping. The coarse centroids, bucket ID lists and
// build positions stay hot (they are a small fraction of the payload and
// drive probe ranking and filter pushdown).

// PayloadExt provides an index's bucket-ordered fine payload. Each Open
// call pins the payload for one sweep of bucket scans and returns it whole
// with its release: the slice is valid until the release runs, and the
// caller must run it on all paths.
type PayloadExt interface {
	// OpenFloats pins the FineFlat vectors, size × dim floats.
	OpenFloats() ([]float32, func(), error)
	// OpenBytes pins the FineSQ8 or FinePQ codes, size × CodeSize bytes.
	OpenBytes() ([]byte, func(), error)
}

// resident is the payload held in RAM; its opens pin nothing.
type resident struct {
	floats []float32
	codes  []byte
}

func (r resident) OpenFloats() ([]float32, func(), error) { return r.floats, noRelease, nil }
func (r resident) OpenBytes() ([]byte, func(), error)     { return r.codes, noRelease, nil }

func noRelease() {}

// Externalizable reports whether this index's fine payload can move out of
// core: FLAT vectors and SQ8 codes. PQ codes are already ~dim/4 bytes per
// vector and their random-access ADC scans defeat block locality, so they
// stay resident.
func (x *IVF) Externalizable() bool {
	return x.fine == FineFlat || x.fine == FineSQ8
}

// Externalized reports whether the fine payload is served out of core.
func (x *IVF) Externalized() bool {
	_, ok := x.payload.(resident)
	return !ok
}

// ResidentPayload returns the bucket-ordered fine payload while it is
// resident — the index's own array, not a copy, so callers must not
// modify it: FLAT yields size×dim floats, SQ8 and PQ yield size×CodeSize
// code bytes. ok=false once the payload is externalized.
func (x *IVF) ResidentPayload() (floats []float32, codes []byte, ok bool) {
	r, ok := x.payload.(resident)
	return r.floats, r.codes, ok
}

// Externalize returns a copy of x whose fine payload is served by ext; the
// receiver is left untouched so in-flight scans of the resident payload
// stay valid (the caller serves the copy from a new segment version). The
// copy shares the coarse quantizer and the CSR offsets, IDs and positions
// with x: ext serves the same payload, row for row.
func (x *IVF) Externalize(ext PayloadExt) (*IVF, error) {
	if ext == nil {
		return nil, fmt.Errorf("ivf: nil payload provider")
	}
	if !x.Externalizable() {
		return nil, fmt.Errorf("ivf: %s payload cannot be externalized", x.fine.name())
	}
	if x.Externalized() {
		return nil, fmt.Errorf("ivf: index already externalized")
	}
	y := *x
	y.payload = ext
	return &y, nil
}
