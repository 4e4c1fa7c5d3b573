package main

import (
	"os/exec"
	"strings"
	"testing"
)

// reproOnly are packages that exist to reproduce the paper's figures — the
// simulated GPU, the SQ8H hybrid that runs on it, the experiment drivers,
// the baseline systems, the synthetic datasets and the query strategies the
// figures compare (the collection serves its own). The server must not
// link any of them.
var reproOnly = []string{
	"vectordb/internal/gpu",
	"vectordb/internal/index/sq8h",
	"vectordb/internal/experiments",
	"vectordb/internal/baseline",
	"vectordb/internal/dataset",
	"vectordb/internal/query",
}

// TestServingClosureExcludesReproPackages pins the server's dependency
// closure: an import that pulls a figure-only package into vectordbd fails
// here rather than shipping in the daemon.
func TestServingClosureExcludesReproPackages(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		deps[pkg] = true
	}
	if !deps["vectordb/internal/core"] {
		t.Fatalf("dependency list looks wrong (no vectordb/internal/core):\n%s", out)
	}
	for _, pkg := range reproOnly {
		if deps[pkg] {
			t.Errorf("vectordbd links %s", pkg)
		}
	}
}
