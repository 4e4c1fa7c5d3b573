// Package lint is vectordb's in-tree static-analysis framework: a small
// analyzer API over the standard library's go/ast and go/types (no
// golang.org/x/tools dependency — the repo is stdlib-only), plus a package
// loader driven by `go list -json` and a runner with module-wide
// aggregation for cross-package invariants.
//
// The shipped analyzers machine-check the hot-path conventions PRs 1–4
// established by hand: pooled scratch must be released on every path
// (poolfree), as must a tiered segment's mapping pin (blockpin), the read
// path must thread context.Context instead of minting background contexts
// (ctxflow), distance kernels are only reached through the internal/vec
// dispatch table (kerneldispatch), and obs metric names are namespaced
// and uniquely registered (metricreg). Three more share one module-wide
// call graph (callgraph.go, summary.go): lock-order cycles (lockorder),
// blocking under a mutex, directly or through any call chain
// (lockdiscipline), and goroutines without a termination path (goleak).
// Copying a lock-bearing value is go vet's copylocks check.
//
// Intentional exceptions are annotated in the source with
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line directly above it; the runner drops
// findings covered by a pragma and reports pragmas that are malformed or,
// for an analyzer that ran, suppressed no finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one reported violation.
type Finding struct {
	Pos      token.Position // file:line:col of the violation
	Analyzer string         // analyzer name, e.g. "poolfree"
	Message  string
}

// String renders the canonical driver output line.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named invariant check. Run is invoked once per loaded
// package; Finish, when set, is invoked once after every package has been
// visited and is where cross-package state (collected by Run closures) is
// checked. Analyzer values returned by the constructors in this package
// carry per-instance state, so build a fresh set per run (see Defaults).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
	// Finish reports module-wide findings after all packages ran.
	Finish reportFuncConsumer
	// Stats, when set, contributes analyzer-specific counters (call-graph
	// size and the like) to RunStats.Extra after Finish has run.
	Stats func(put func(name string, v int64))
}

// reportFunc is the reporting callback handed to Finish phases.
type reportFunc = func(pos token.Position, format string, args ...any)

type reportFuncConsumer = func(report reportFunc)

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	PkgPath  string

	runner *Runner
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.runner.report(p.Fset.Position(pos), p.Analyzer.Name, fmt.Sprintf(format, args...))
}

// Runner executes a set of analyzers over loaded packages, applying
// //lint:allow pragmas and collecting findings.
type Runner struct {
	Analyzers []*Analyzer

	findings   []Finding
	suppressed int
	// allow maps filename -> line -> analyzer name -> the pragma allowing
	// it there.
	allow map[string]map[int]map[string]*pragma
	// nanos accumulates per-analyzer wall time across Run and Finish.
	nanos map[string]int64
}

// NewRunner returns a runner over the given analyzers.
func NewRunner(analyzers []*Analyzer) *Runner {
	return &Runner{
		Analyzers: analyzers,
		allow:     map[string]map[int]map[string]*pragma{},
		nanos:     map[string]int64{},
	}
}

// report records a finding unless an allow pragma covers it. Pragmas are
// collected per file before any analyzer runs on it, and the only
// reporting entry points (Pass.Reportf, Finish's report func) funnel here,
// so suppression is uniform.
func (r *Runner) report(pos token.Position, analyzer, msg string) {
	// A pragma suppresses findings on its own line (trailing comment) and
	// on the line directly below it (preceding-line comment).
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if p := r.allow[pos.Filename][line][analyzer]; p != nil {
			p.used = true
			r.suppressed++
			return
		}
	}
	r.findings = append(r.findings, Finding{Pos: pos, Analyzer: analyzer, Message: msg})
}

// Findings returns all findings sorted by position.
func (r *Runner) Findings() []Finding {
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return r.findings
}

// RunPackage collects pragmas from pkg's files, then runs every analyzer
// on it.
func (r *Runner) RunPackage(pkg *LoadedPackage) {
	// Pragmas are validated against every shipped analyzer, not just the
	// selected subset: running `-run kerneldispatch` must not flag a
	// legitimate `//lint:allow ctxflow ...` as malformed.
	known := map[string]bool{}
	for _, a := range Defaults() {
		known[a.Name] = true
	}
	for _, a := range r.Analyzers {
		known[a.Name] = true
	}
	for _, f := range pkg.Syntax {
		r.collectPragmas(pkg.Fset, f, known)
	}
	for _, a := range r.Analyzers {
		if a.Run == nil {
			continue
		}
		start := time.Now()
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Syntax,
			Pkg:      pkg.Types,
			Info:     pkg.TypesInfo,
			PkgPath:  pkg.ImportPath,
			runner:   r,
		})
		r.nanos[a.Name] += time.Since(start).Nanoseconds()
	}
}

// Finish runs every analyzer's module-wide phase, then reports the
// pragmas that suppressed nothing.
func (r *Runner) Finish() {
	for _, a := range r.Analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		start := time.Now()
		a.Finish(func(pos token.Position, format string, args ...any) {
			r.report(pos, name, fmt.Sprintf(format, args...))
		})
		r.nanos[name] += time.Since(start).Nanoseconds()
	}
	r.reportUnused()
}

// pragma is one well-formed //lint:allow directive; used records whether
// it suppressed a finding in this run.
type pragma struct {
	pos  token.Position
	used bool
}

// reportUnused reports every pragma for an analyzer of this run that
// suppressed no finding: a waiver whose violation is gone is stale, and
// left in place it would silently excuse the next violation on its line.
// Like malformed pragmas these findings cannot be suppressed.
func (r *Runner) reportUnused() {
	ran := map[string]bool{}
	for _, a := range r.Analyzers {
		ran[a.Name] = true
	}
	for _, lines := range r.allow {
		for _, set := range lines {
			for name, p := range set {
				if ran[name] && !p.used {
					r.findings = append(r.findings, Finding{
						Pos:      p.pos,
						Analyzer: "pragma",
						Message:  fmt.Sprintf("//lint:allow %s suppressed no finding: delete the stale waiver", name),
					})
				}
			}
		}
	}
}

// collectPragmas scans a file's comments for //lint:allow directives.
// Malformed pragmas (unknown analyzer, missing reason) are themselves
// findings under the reserved name "pragma" and cannot be suppressed.
func (r *Runner) collectPragmas(fset *token.FileSet, f *ast.File, known map[string]bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//lint:allow")
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(text)
			if len(fields) == 0 || !known[fields[0]] {
				r.findings = append(r.findings, Finding{
					Pos:      pos,
					Analyzer: "pragma",
					Message:  fmt.Sprintf("malformed //lint:allow: want \"//lint:allow <analyzer> <reason>\" with a known analyzer, got %q", strings.TrimSpace(text)),
				})
				continue
			}
			if len(fields) < 2 {
				r.findings = append(r.findings, Finding{
					Pos:      pos,
					Analyzer: "pragma",
					Message:  fmt.Sprintf("//lint:allow %s needs a reason: the next reader must learn why the invariant is waived here", fields[0]),
				})
				continue
			}
			lines := r.allow[pos.Filename]
			if lines == nil {
				lines = map[int]map[string]*pragma{}
				r.allow[pos.Filename] = lines
			}
			set := lines[pos.Line]
			if set == nil {
				set = map[string]*pragma{}
				lines[pos.Line] = set
			}
			if set[fields[0]] == nil {
				set[fields[0]] = &pragma{pos: pos}
			}
		}
	}
}

// RunStats describes one run for the driver's -stats flag: package count,
// per-analyzer wall time, analyzer-contributed counters (call-graph size),
// and how many findings allow pragmas suppressed.
type RunStats struct {
	Packages      int
	AnalyzerNanos map[string]int64
	Extra         map[string]int64
	Suppressed    int
}

// RunWithStats is the one-call entry point used by cmd/vectordblint and
// the tests: load patterns relative to dir, run analyzers over every loaded
// package, then the cross-package Finish phase, timing each analyzer.
func RunWithStats(dir string, patterns []string, analyzers []*Analyzer) ([]Finding, *RunStats, error) {
	prog, err := Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	r := NewRunner(analyzers)
	for _, pkg := range prog.Packages {
		r.RunPackage(pkg)
	}
	r.Finish()
	stats := &RunStats{
		Packages:      len(prog.Packages),
		AnalyzerNanos: r.nanos,
		Extra:         map[string]int64{},
		Suppressed:    r.suppressed,
	}
	for _, a := range analyzers {
		if a.Stats != nil {
			a.Stats(func(name string, v int64) { stats.Extra[name] = v })
		}
	}
	return r.Findings(), stats, nil
}
