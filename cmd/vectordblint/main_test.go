package main

import (
	"encoding/json"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// buildDriver compiles the vectordblint binary once into the test's temp
// dir and returns its path.
func buildDriver(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vectordblint")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building driver: %v\n%s", err, out)
	}
	return bin
}

// TestDriverEndToEnd runs the built binary against the golden module and
// checks the three exit statuses and the canonical output line format.
func TestDriverEndToEnd(t *testing.T) {
	bin := buildDriver(t)
	golden := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "lintest")

	// Findings: exit 1, file:line:col: [analyzer] message lines.
	out, err := exec.Command(bin, "-C", golden, "-q", "./internal/query/ctxbad").CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("ctxbad run: exit %d (err %v), want 1\n%s", code, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 5 {
		t.Fatalf("ctxbad run printed %d lines, want 5:\n%s", len(lines), out)
	}
	for _, ln := range lines {
		if !strings.Contains(ln, "ctxbad.go:") || !strings.Contains(ln, ": [ctxflow] ") {
			t.Errorf("malformed finding line: %q", ln)
		}
	}

	// Clean: exit 0 (kernelbad has no atomicmix findings).
	out, err = exec.Command(bin, "-C", golden, "-run", "atomicmix", "./internal/index/kernelbad").CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("clean run: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(string(out), "clean") {
		t.Errorf("clean run summary missing: %q", out)
	}

	// Driver error: exit 2 on an unknown analyzer.
	out, err = exec.Command(bin, "-run", "nosuch", "./...").CombinedOutput()
	if code := exitCode(err); code != 2 {
		t.Fatalf("unknown-analyzer run: exit %d, want 2\n%s", code, out)
	}
	if !strings.Contains(string(out), "unknown analyzers: nosuch") {
		t.Errorf("unknown-analyzer message missing: %q", out)
	}

	// -list prints the suite without loading anything, including the
	// interprocedural trio.
	out, err = exec.Command(bin, "-list").CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("-list: exit %d, want 0\n%s", code, out)
	}
	for _, name := range []string{"poolfree", "blockpin", "ctxflow", "kerneldispatch", "lockdiscipline", "atomicmix", "metricreg", "lockorder", "lockdisciplinex", "goleak"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

// TestDriverInterprocedural runs the -run subset over the golden module
// for each new analyzer and checks exit codes: findings in the seeded
// fixtures, clean elsewhere.
func TestDriverInterprocedural(t *testing.T) {
	bin := buildDriver(t)
	golden := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "lintest")

	// The cross-package lock cycle is only detectable module-wide: loading
	// pkga alone leaves pkgb's bodies unsummarized, so the A.mu→B.Mu edge
	// (which runs through pkgb.Grab) is missing and the run is clean; the
	// ./... run below must report it.
	out, err := exec.Command(bin, "-C", golden, "-run", "lockorder", "./internal/locks/pkga").CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("pkga-only lockorder: exit %d, want 0 (half a cycle is not a cycle)\n%s", code, out)
	}
	out, err = exec.Command(bin, "-C", golden, "-run", "lockorder", "./internal/goleakbad").CombinedOutput()
	if code := exitCode(err); code != 0 {
		t.Fatalf("lockorder on lock-free package: exit %d, want 0\n%s", code, out)
	}
	out, err = exec.Command(bin, "-C", golden, "-q", "-run", "lockorder,lockdisciplinex,goleak", "./...").CombinedOutput()
	if code := exitCode(err); code != 1 {
		t.Fatalf("interprocedural run: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{"[lockorder] potential deadlock: lock-order cycle", "[lockdisciplinex] ", "[goleak] goroutine leak"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("interprocedural run missing %q:\n%s", want, out)
		}
	}
}

// TestDriverJSONAndStats covers the -json and -stats flags end to end.
func TestDriverJSONAndStats(t *testing.T) {
	bin := buildDriver(t)
	golden := filepath.Join("..", "..", "internal", "lint", "testdata", "src", "lintest")

	// -json with findings: exit 1, parseable document, counts agree.
	out, err := exec.Command(bin, "-C", golden, "-json", "-run", "goleak", "./internal/goleakbad").Output()
	if code := exitCode(err); code != 1 {
		t.Fatalf("-json findings run: exit %d, want 1\n%s", code, out)
	}
	var doc struct {
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"findings"`
		Count int `json:"count"`
		Stats *struct {
			Packages int `json:"packages"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, out)
	}
	if doc.Count != len(doc.Findings) || doc.Count != 3 {
		t.Fatalf("-json count = %d, findings = %d, want 3 each\n%s", doc.Count, len(doc.Findings), out)
	}
	for _, f := range doc.Findings {
		if f.Analyzer != "goleak" || f.Line == 0 || !strings.Contains(f.Message, "goroutine leak") {
			t.Errorf("unexpected json finding: %+v", f)
		}
	}
	if doc.Stats != nil {
		t.Error("-json without -stats must omit the stats block")
	}

	// -json -stats on a clean package: exit 0, stats embedded.
	out, err = exec.Command(bin, "-C", golden, "-json", "-stats", "-run", "lockorder", "./internal/xblock").Output()
	if code := exitCode(err); code != 0 {
		t.Fatalf("-json -stats clean run: exit %d, want 0\n%s", code, out)
	}
	var doc2 struct {
		Count int `json:"count"`
		Stats *struct {
			Packages      int              `json:"packages"`
			AnalyzerNanos map[string]int64 `json:"analyzer_nanos"`
			CallGraph     map[string]int64 `json:"callgraph"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(out, &doc2); err != nil {
		t.Fatalf("-json -stats output does not parse: %v\n%s", err, out)
	}
	if doc2.Count != 0 || doc2.Stats == nil || doc2.Stats.Packages == 0 {
		t.Fatalf("-json -stats document malformed: %s", out)
	}
	if _, ok := doc2.Stats.AnalyzerNanos["lockorder"]; !ok {
		t.Errorf("stats missing lockorder timing: %s", out)
	}
	if doc2.Stats.CallGraph["callgraph_functions"] == 0 {
		t.Errorf("stats missing call-graph size: %s", out)
	}

	// Text -stats goes to stderr and keeps stdout parseable as findings.
	cmd := exec.Command(bin, "-C", golden, "-stats", "-run", "lockdisciplinex", "./internal/xblock")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err = cmd.Run()
	if code := exitCode(err); code != 1 {
		t.Fatalf("text -stats run: exit %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "lockdisciplinex") || !strings.Contains(stderr.String(), "ms") {
		t.Errorf("text stats missing from stderr: %q", stderr.String())
	}
	if strings.Contains(stdout.String(), "ms\n") {
		t.Errorf("stats leaked onto stdout: %q", stdout.String())
	}
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}
