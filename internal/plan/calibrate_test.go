package plan

import (
	"math"
	"testing"

	"vectordb/internal/vec"
)

// TestCalibratePositiveFinite: every measured primitive must come back
// finite and positive — the cost model divides by these rates.
func TestCalibratePositiveFinite(t *testing.T) {
	p := Calibrate()
	check := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s: bad calibrated value %v", name, v)
		}
	}
	for _, l := range vec.Levels() {
		check("kernel/"+l.String(), p.KernelDimsPerSec[l.String()])
	}
	check("sq8", p.SQ8DimsPerSec)
	check("row_per_dim", p.RowNsPerDim)
	if p.RowOverheadNs < 0 {
		t.Errorf("row overhead negative: %v", p.RowOverheadNs)
	}
	check("lookup", p.LookupNs)
	check("bitset_per_row", p.BitsetNsPerRow)
	if p.BitsetNsPerMatch < 0 {
		t.Errorf("bitset per-match negative: %v", p.BitsetNsPerMatch)
	}
	if p.Fingerprint != Fingerprint() {
		t.Errorf("fingerprint mismatch: %q vs %q", p.Fingerprint, Fingerprint())
	}
	if p.Stale() {
		t.Error("freshly calibrated profile reports stale")
	}
}

// TestSharedProfileSingleton: the lazy process-wide pass runs once.
func TestSharedProfileSingleton(t *testing.T) {
	a, b := SharedProfile(), SharedProfile()
	if a != b {
		t.Error("SharedProfile returned different instances")
	}
}

// TestPlannerLazyCalibration: a planner without a fixed profile decides
// with the shared profile rather than crashing or pricing with zeros.
func TestPlannerLazyCalibration(t *testing.T) {
	p := New(Config{})
	d := p.PlaceQuery("", QueryShape{NQ: 1, K: 10, Dim: 32, HotRows: 4096}, VenueFlatCPU, VenueIVFCPU)
	if d.Est <= 0 {
		t.Errorf("lazy-calibrated decision has non-positive estimate: %v", d.Est)
	}
}
