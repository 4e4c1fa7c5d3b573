package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"vectordb/internal/colstore"
	"vectordb/internal/vec"
)

// profileVersion bumps whenever the Profile schema or the cost model's
// interpretation of it changes; persisted profiles from other versions
// are stale by definition. Retiring a field does not bump it while every
// remaining field keeps its meaning: Load ignores the retired keys.
const profileVersion = 1

// CalibrationFile is the file name a server writes its profile under,
// beside the tier directory.
const CalibrationFile = "plan-calibration.json"

// Fingerprint identifies the machine/runtime shape calibration measured:
// schema version, the CPU's detected SIMD feature tier, and GOMAXPROCS
// (throughputs move with both). A persisted profile whose fingerprint
// differs is re-measured rather than trusted.
func Fingerprint() string {
	return fmt.Sprintf("v%d/simd=%s/gomaxprocs=%d",
		profileVersion, vec.DetectLevel(), runtime.GOMAXPROCS(0))
}

// Stale reports whether the profile was measured under a different
// machine/runtime shape than the current process.
func (p *Profile) Stale() bool {
	return p == nil || p.Fingerprint != Fingerprint()
}

// Save persists the profile as JSON at path (atomic temp+rename write).
func (p *Profile) Save(path string) error {
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return fmt.Errorf("plan: marshal profile: %w", err)
	}
	return colstore.WriteFileAtomic(path, append(buf, '\n'))
}

// Load reads a persisted profile. It does not check staleness; callers
// decide (LoadOrCalibrate does).
func Load(path string) (*Profile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p Profile
	if err := json.Unmarshal(buf, &p); err != nil {
		return nil, fmt.Errorf("plan: parse profile %s: %w", path, err)
	}
	return &p, nil
}

// LoadOrCalibrate returns a current profile for this machine: a persisted
// one when path holds a fresh (fingerprint-matching) profile and force is
// false; otherwise it calibrates and persists the result. loaded reports
// whether re-measurement was skipped. A write failure is reported but the
// freshly calibrated profile is still returned — persistence is an
// optimization, not a correctness requirement.
func LoadOrCalibrate(path string, force bool) (p *Profile, loaded bool, err error) {
	if !force {
		if prev, lerr := Load(path); lerr == nil && !prev.Stale() {
			return prev, true, nil
		}
	}
	p = Calibrate()
	return p, false, p.Save(path)
}
