package benchkit

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env is where a result was measured. Results from different environments
// are not comparable, so every result carries one.
type Env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	SIMD       string `json:"simd"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"` // N: connections the closed loops use
}

// CaptureEnv reads the machine and toolchain; the caller fills SIMD and
// Clients, which belong to the program and the benchmark.
func CaptureEnv() Env {
	return Env{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return runtime.GOARCH
}

// gitCommit is the checked-out commit, or "unknown" outside a git work
// tree (the benchmark also runs from exported source).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
