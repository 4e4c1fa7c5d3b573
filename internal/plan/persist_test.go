package plan

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestProfileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, CalibrationFile)
	p := testProfile()
	p.CreatedUnix = 12345
	if err := p.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.Fingerprint != p.Fingerprint || got.CreatedUnix != 12345 ||
		got.BitsetNsPerRow != p.BitsetNsPerRow || got.SQ8DimsPerSec != p.SQ8DimsPerSec {
		t.Errorf("round trip mismatch: %+v vs %+v", got, p)
	}
	if len(got.KernelDimsPerSec) != len(p.KernelDimsPerSec) {
		t.Errorf("kernel map lost entries: %v", got.KernelDimsPerSec)
	}
}

func TestStaleFingerprint(t *testing.T) {
	p := testProfile()
	if p.Stale() {
		t.Error("matching fingerprint reported stale")
	}
	p.Fingerprint = "v0/simd=abacus/gomaxprocs=1"
	if !p.Stale() {
		t.Error("foreign fingerprint not reported stale")
	}
	var nilProf *Profile
	if !nilProf.Stale() {
		t.Error("nil profile must be stale")
	}
}

// TestLoadOrCalibrate covers the three paths: fresh persisted profile is
// reused; a stale one is re-measured and overwritten; force re-measures
// even a fresh one.
func TestLoadOrCalibrate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, CalibrationFile)

	// No file yet: calibrates and persists.
	p1, loaded, err := LoadOrCalibrate(path, false)
	if err != nil || loaded {
		t.Fatalf("first call: loaded=%v err=%v", loaded, err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("profile not persisted: %v", err)
	}

	// Fresh file: loaded without re-measurement.
	p2, loaded, err := LoadOrCalibrate(path, false)
	if err != nil || !loaded {
		t.Fatalf("second call: loaded=%v err=%v", loaded, err)
	}
	if p2.CreatedUnix != p1.CreatedUnix {
		t.Errorf("reloaded profile differs: %d vs %d", p2.CreatedUnix, p1.CreatedUnix)
	}

	// Force: re-measures despite the fresh file.
	_, loaded, err = LoadOrCalibrate(path, true)
	if err != nil || loaded {
		t.Fatalf("forced call: loaded=%v err=%v", loaded, err)
	}

	// Stale file (foreign fingerprint): re-measures.
	p4 := testProfile()
	p4.Fingerprint = "v0/simd=abacus/gomaxprocs=1"
	if err := p4.Save(path); err != nil {
		t.Fatalf("save stale: %v", err)
	}
	p5, loaded, err := LoadOrCalibrate(path, false)
	if err != nil || loaded {
		t.Fatalf("stale call: loaded=%v err=%v", loaded, err)
	}
	if p5.Stale() {
		t.Error("re-measured profile still stale")
	}
}

// TestLoadsProfileWithRetiredDeviceKeys: a profile written before the
// device-model rates left the schema (pcie_*, gpu_dims_per_sec) still
// loads as fresh — the retired keys are ignored and every remaining field
// means what it meant, so the fingerprint version did not move and the
// server does not re-measure on upgrade.
func TestLoadsProfileWithRetiredDeviceKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), CalibrationFile)
	old := fmt.Sprintf(`{
  "fingerprint": %q,
  "created_unix": 1700000000,
  "gomaxprocs": %d,
  "kernel_dims_per_sec": {"scalar": 2.5e9, "avx2": 8e9},
  "sq8_dims_per_sec": 16000000000,
  "row_overhead_ns": 30,
  "row_ns_per_dim": 0.5,
  "lookup_ns": 40,
  "bitset_ns_per_row": 1.2,
  "bitset_ns_per_match": 20,
  "pcie_bytes_per_sec": 1500000000,
  "pcie_latency_ns": 30000,
  "gpu_dims_per_sec": 64000000000
}
`, Fingerprint(), runtime.GOMAXPROCS(0))
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	p, loaded, err := LoadOrCalibrate(path, false)
	if err != nil || !loaded {
		t.Fatalf("loaded=%v err=%v, want the persisted profile reused", loaded, err)
	}
	if p.CreatedUnix != 1700000000 || p.SQ8DimsPerSec != 16e9 || p.BitsetNsPerMatch != 20 ||
		p.KernelDimsPerSec["avx2"] != 8e9 {
		t.Errorf("fields lost on load: %+v", p)
	}
	if buf, _ := os.ReadFile(path); string(buf) != old {
		t.Error("a fresh profile was rewritten on load")
	}
}
