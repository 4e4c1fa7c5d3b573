package lint

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRE matches golden expectations in testdata sources:
//
//	// want <analyzer> "substring"        — finding expected on this line
//	// want-below <analyzer> "substring"  — finding expected one line down
//	// want-above <analyzer> "substring"  — finding expected one line up
//
// The quoted text is matched as a substring of the finding's message.
// want-below marks declarations whose finding lands on the code line
// under a doc comment; want-above marks pragma findings, which are
// reported at the pragma comment itself (where no second comment fits).
// The analyzer name "vet" marks a finding of go vet's copylocks check,
// which owns the lock-copy rule (TestGoldenVetCopylocks).
var wantRE = regexp.MustCompile(`// want(-below|-above)? ([a-z]+) "([^"]+)"`)

type expectation struct {
	file     string
	line     int
	analyzer string
	substr   string
	matched  bool
}

// collectWants gathers the expectations under root: go vet's when vet is
// set, the suite's otherwise.
func collectWants(t *testing.T, root string, vet bool) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for ln := 1; sc.Scan(); ln++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				if (m[2] == "vet") != vet {
					continue
				}
				line := ln
				switch m[1] {
				case "-below":
					line++
				case "-above":
					line--
				}
				wants = append(wants, &expectation{file: path, line: line, analyzer: m[2], substr: m[3]})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) == 0 {
		t.Fatal("no // want expectations found under", root)
	}
	return wants
}

// TestGolden runs the full suite over the synthetic modules in testdata
// and requires an exact match between findings and // want comments:
// every seeded violation must be caught on its annotated line, and
// nothing else may be reported (so the legal control shapes in each
// fixture double as false-positive tests, and the //lint:allow fixtures
// prove suppression works end to end). lintest's fixtures are exported
// and called by nothing, so testonly runs only over its own module,
// testonly, which holds a nested module that replaces it.
func TestGolden(t *testing.T) {
	var rest []*Analyzer
	for _, a := range Defaults() {
		if a.Name != "testonly" {
			rest = append(rest, a)
		}
	}
	byAnalyzer := map[string]int{}
	for _, m := range []struct {
		module    string
		analyzers []*Analyzer
	}{{"lintest", rest}, {"testonly", Defaults()}} {
		root, err := filepath.Abs(filepath.Join("testdata", "src", m.module))
		if err != nil {
			t.Fatal(err)
		}
		findings, _, err := RunWithStats(root, []string{"./..."}, m.analyzers)
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range checkWants(t, findings, collectWants(t, root, false)) {
			byAnalyzer[name] += n
		}
	}

	// Every shipped analyzer (and the pragma validator) must be exercised
	// by at least one golden finding, so a silently-broken analyzer cannot
	// pass as "clean".
	for _, a := range Defaults() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s produced no golden findings", a.Name)
		}
	}
	if byAnalyzer["pragma"] == 0 {
		t.Error("malformed-pragma validation produced no golden findings")
	}
}

// TestGoldenVetCopylocks keeps the lock-copy fixtures covered by the
// check that owns them: go vet's copylocks over the golden module must
// report exactly the "want vet" lines.
func TestGoldenVetCopylocks(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "lintest"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-copylocks", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput() // exit status 1: vet found something
	if cmd.ProcessState == nil {
		t.Fatalf("go vet did not start: %v", err)
	}
	var findings []Finding
	lineRE := regexp.MustCompile(`(?m)^(\S+\.go):(\d+):(\d+): (.+)$`)
	for _, m := range lineRE.FindAllStringSubmatch(string(out), -1) {
		f := Finding{Analyzer: "vet", Message: m[4]}
		f.Pos.Filename = filepath.Join(root, m[1])
		f.Pos.Line, _ = strconv.Atoi(m[2])
		f.Pos.Column, _ = strconv.Atoi(m[3])
		findings = append(findings, f)
	}
	wants := collectWants(t, root, true)
	if byAnalyzer := checkWants(t, findings, wants); byAnalyzer["vet"] != 3 || len(wants) != 3 {
		t.Errorf("go vet -copylocks: %d findings for %d wants, want 3 lock copies\n%s", byAnalyzer["vet"], len(wants), out)
	}
}

// checkWants requires an exact match between findings and expectations —
// every expectation met on its line, no finding left over — and returns
// the findings counted per analyzer.
func checkWants(t *testing.T, findings []Finding, wants []*expectation) map[string]int {
	t.Helper()
	byAnalyzer := map[string]int{}
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line &&
				w.analyzer == f.Analyzer && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding: want [%s] %q at %s:%d", w.analyzer, w.substr, w.file, w.line)
		}
	}
	return byAnalyzer
}

// TestGoldenSelect runs a single analyzer over the whole golden module
// and checks the subsetting: only that analyzer's findings appear, except
// that genuinely malformed pragmas are still reported (they are broken
// regardless of which analyzers run), while valid pragmas naming
// unselected analyzers must not be.
func TestGoldenSelect(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "src", "lintest"))
	if err != nil {
		t.Fatal(err)
	}
	analyzers, unknown := Select([]string{"kerneldispatch"})
	if len(unknown) > 0 || len(analyzers) != 1 {
		t.Fatalf("Select(kerneldispatch) = %d analyzers, unknown %v", len(analyzers), unknown)
	}
	findings, _, err := RunWithStats(root, []string{"./..."}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, f := range findings {
		counts[f.Analyzer]++
		switch f.Analyzer {
		case "kerneldispatch":
			if !strings.HasSuffix(filepath.Dir(f.Pos.Filename), filepath.FromSlash("internal/index/kernelbad")) {
				t.Errorf("kerneldispatch finding outside the kernelbad fixture: %s", f)
			}
		case "pragma":
			if !strings.HasSuffix(filepath.Dir(f.Pos.Filename), filepath.FromSlash("internal/core/allowok")) {
				t.Errorf("pragma finding outside the allowok fixture: %s", f)
			}
		default:
			t.Errorf("selected run leaked a %s finding: %s", f.Analyzer, f)
		}
	}
	if counts["kerneldispatch"] != 3 || counts["pragma"] != 2 || len(findings) != 5 {
		t.Fatalf("got %v, want 3 kerneldispatch + 2 pragma:\n%s", counts, renderFindings(findings))
	}
}

// TestSelectUnknown verifies the driver's unknown-analyzer handling.
func TestSelectUnknown(t *testing.T) {
	analyzers, unknown := Select([]string{"poolfree", "nosuch"})
	if len(analyzers) != 1 || analyzers[0].Name != "poolfree" {
		t.Errorf("Select kept %d analyzers", len(analyzers))
	}
	if len(unknown) != 1 || unknown[0] != "nosuch" {
		t.Errorf("unknown = %v, want [nosuch]", unknown)
	}
}

// TestFindingString pins the canonical driver output format.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "ctxflow", Message: "msg"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "a/b.go:3:7: [ctxflow] msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func renderFindings(fs []Finding) string {
	var b strings.Builder
	for _, f := range fs {
		fmt.Fprintln(&b, f)
	}
	return b.String()
}
