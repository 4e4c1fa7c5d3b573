package colstore

// PushedFilter is a compiled attribute constraint: the source resolves the
// predicate to dense bitsets over build positions, so vector query
// processing tests membership with word loads under the batch kernels
// instead of a map probe per encountered ID. Its handle is the source's
// own (a table keeps the bitset; a collection view keeps the predicate and
// compiles it per segment at the positions each search reads). Release
// returns pooled storage; the filter must not be used afterwards.
type PushedFilter struct {
	// Matched/Total give the constraint's selectivity (tombstones already
	// cleared from Matched).
	Matched, Total int
	// Mode records how the source will apply the filter — "dense" (run
	// extraction through the batch kernels), "sparse" (gather path) or
	// "graph" (filtered traversal) — for the filter_mode trace annotation.
	Mode    string
	handle  any
	release func()
}

// NewPushedFilter wraps a source-owned compiled filter. handle is opaque to
// the strategies and flows back to the source's pushed search; release
// (may be nil) returns pooled storage.
func NewPushedFilter(matched, total int, mode string, handle any, release func()) *PushedFilter {
	return &PushedFilter{Matched: matched, Total: total, Mode: mode, handle: handle, release: release}
}

// Handle returns the source-owned payload passed to NewPushedFilter.
func (pf *PushedFilter) Handle() any { return pf.handle }

// Selectivity is Matched/Total (0 when the source is empty).
func (pf *PushedFilter) Selectivity() float64 {
	if pf.Total == 0 {
		return 0
	}
	return float64(pf.Matched) / float64(pf.Total)
}

// Release returns pooled bitsets to their pool.
func (pf *PushedFilter) Release() {
	if pf.release != nil {
		pf.release()
		pf.release = nil
	}
}
