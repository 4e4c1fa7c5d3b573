package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// metricNameRE is the namespace contract for every series the obs
// registry exports: the vectordb_ prefix keeps the /metrics page
// greppable and collision-free when scraped next to other processes.
var metricNameRE = regexp.MustCompile(`^vectordb_[a-z0-9_]+$`)

// regKind is the metric family type implied by a registration call.
type regKind string

var regMethodKind = map[string]regKind{
	"Counter":     "counter",
	"CounterFunc": "counter",
	"GaugeFunc":   "gauge",
	"Histogram":   "histogram",
}

// regSite is one registration call site.
type regSite struct {
	name string
	kind regKind
	fn   string // "pkgpath.FuncName" that contains the call
	pos  token.Position
}

// NewMetricReg returns the metricreg analyzer: every obs.Registry metric
// name must be a compile-time constant matching vectordb_[a-z0-9_]+, and
// each family name must be registered from exactly one function — label
// variants of one family registered together are fine; the same name
// popping up in unrelated call sites is either an accidental collision or
// a latent type-mismatch panic (the registry panics when one name is
// requested as two different metric types). The same-function rule is
// checked module-wide in the Finish phase, across packages.
func NewMetricReg() *Analyzer {
	a := &Analyzer{
		Name: "metricreg",
		Doc:  "obs metric names are vectordb_-namespaced constants, each family registered from one function",
	}
	var sites []regSite
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			curFn := pass.PkgPath + ".<init>"
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					curFn = pass.PkgPath + "." + fd.Name.Name
					collectMetricCalls(pass, fd.Body, curFn, &sites)
				} else if gd, ok := d.(*ast.GenDecl); ok {
					collectMetricCalls(pass, gd, pass.PkgPath+".<init>", &sites)
				}
			}
		}
	}
	a.Finish = func(report func(pos token.Position, format string, args ...any)) {
		byName := map[string][]regSite{}
		for _, s := range sites {
			byName[s.name] = append(byName[s.name], s)
		}
		names := make([]string, 0, len(byName))
		for n := range byName {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			group := byName[n]
			first := group[0]
			for _, s := range group[1:] {
				if s.kind != first.kind {
					report(s.pos, "metric %q is registered as a %s here but as a %s at %s:%d: the registry panics on the second type",
						n, s.kind, first.kind, first.pos.Filename, first.pos.Line)
					continue
				}
				if s.fn != first.fn {
					report(s.pos, "metric %q is also registered in %s (%s:%d): register a family from a single function so its labels and help stay coherent",
						n, first.fn, first.pos.Filename, first.pos.Line)
				}
			}
		}
	}
	return a
}

// collectMetricCalls finds obs.Registry registration calls under root and
// validates their name argument.
func collectMetricCalls(pass *Pass, root ast.Node, fnName string, sites *[]regSite) {
	ast.Inspect(root, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || !pathHasSuffix(funcPkgPath(fn), "internal/obs") {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !typeIs(sig.Recv().Type(), "internal/obs", "Registry") {
			return true
		}
		kind, isReg := regMethodKind[fn.Name()]
		isHelp := fn.Name() == "Help"
		if !isReg && !isHelp {
			return true
		}
		if len(call.Args) == 0 {
			return true
		}
		nameArg := call.Args[0]
		tv := pass.Info.Types[nameArg]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			pass.Reportf(nameArg.Pos(), "metric name passed to Registry.%s is not a compile-time constant: dynamic names defeat static registration checks and HELP coherence",
				fn.Name())
			return true
		}
		name := constant.StringVal(tv.Value)
		if !metricNameRE.MatchString(name) {
			pass.Reportf(nameArg.Pos(), "metric name %q does not match %s: all series share the vectordb_ namespace",
				name, metricNameRE.String())
		}
		if isReg {
			*sites = append(*sites, regSite{name: name, kind: kind, fn: fnName, pos: pass.Fset.Position(call.Pos())})
		}
		return true
	})
}
