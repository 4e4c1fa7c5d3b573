// Package core stands in for the real core package's mapping pins: the
// analyzers match it by import-path suffix, so blockpin tracks the release
// these segTier and Segment methods return exactly as in
// vectordb/internal/core. The seeded violations (leaked, discarded and
// branch-dependent releases) sit next to the legal shapes (defer, error
// return with nothing pinned, transfer to the caller, escape to a struct
// field) that must stay silent.
package core

// MappedFile is a mapped extent file.
type MappedFile struct {
	b []byte
}

// segTier is one segment's residency state machine.
type segTier struct {
	mf   *MappedFile
	pins int
}

func (t *segTier) release() { t.pins-- }

// acquire pins the mapping; the caller runs the release.
func (t *segTier) acquire() (*MappedFile, func(), error) {
	t.pins++
	return t.mf, t.release, nil
}

// extent pins the mapping and returns one extent's bytes.
func (t *segTier) extent(kind, field uint32) ([]byte, func(), error) {
	mf, rel, err := t.acquire()
	if err != nil {
		return nil, nil, err
	}
	return mf.b, rel, nil
}

// Segment is a sealed segment whose vectors may live in the mapping.
type Segment struct {
	tier *segTier
	data []float32
}

// vectorData returns field f's column and its release.
func (s *Segment) vectorData(f int) ([]float32, func(), error) {
	if s.tier == nil {
		return s.data, func() {}, nil
	}
	b, rel, err := s.tier.extent(0, uint32(f))
	if err != nil {
		return nil, nil, err
	}
	out := make([]float32, len(b))
	return out, rel, nil
}

// vectorRows wraps vectorData in a row accessor: the release transfers.
func (s *Segment) vectorRows(f int) (func(int) []float32, func(), error) {
	data, rel, err := s.vectorData(f)
	if err != nil {
		return nil, nil, err
	}
	return func(r int) []float32 { return data[r : r+1] }, rel, nil
}

// LeakToEnd falls off the end with the mapping pinned: the segment can
// never demote again.
func LeakToEnd(s *Segment, out []float32) {
	data, rel, err := s.vectorData(0) // want blockpin "not released before the function returns"
	if err != nil {
		return
	}
	copy(out, data)
	if rel == nil {
		out[0] = 0
	}
}

// Discarded never binds the release; nothing can ever run it.
func Discarded(s *Segment, t *segTier) {
	data, _, err := s.vectorData(0) // want blockpin "is discarded"
	_, _ = data, err
	t.acquire() // want blockpin "is discarded"
}

// BranchyLeak releases on one branch only.
func BranchyLeak(t *segTier, flag bool) {
	mf, rel, err := t.acquire() // want blockpin "not released before the function returns"
	if err != nil {
		return
	}
	_ = mf
	if flag {
		rel()
	}
}

// EarlyReturnLeak releases at the end but leaks on the mid-function
// return, which runs with the mapping pinned.
func EarlyReturnLeak(t *segTier, n int) int {
	b, rel, err := t.extent(1, 0)
	if err != nil {
		return 0
	}
	if n > len(b) {
		return 0 // want blockpin "not released on this return path"
	}
	rel()
	return n
}

// Deferred is the canonical legal shape: the error return pins nothing,
// every later path runs the defer.
func Deferred(s *Segment) (float32, error) {
	rowAt, rel, err := s.vectorRows(0)
	if err != nil {
		return 0, err
	}
	defer rel()
	return rowAt(0)[0], nil
}

// ReleaseBothPaths releases explicitly before each return, after the last
// read of the view.
func ReleaseBothPaths(s *Segment, flag bool) int {
	data, rel, err := s.vectorData(0)
	if err != nil {
		return 0
	}
	if flag {
		n := len(data)
		rel()
		return n
	}
	rel()
	return 0
}

// payload mirrors a provider's sweep: the release escapes into the struct,
// whose close owns it from then on.
type payload struct {
	b       []byte
	release func()
}

// EscapeToField stores the release in a longer-lived struct: ownership
// transfers and tracking stops.
func EscapeToField(t *segTier) (payload, error) {
	b, rel, err := t.extent(2, 0)
	if err != nil {
		return payload{}, err
	}
	p := payload{b: b}
	p.release = rel
	return p, nil
}
