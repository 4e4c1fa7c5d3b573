package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// interp is the shared interprocedural state behind lockorder,
// lockdiscipline and goleak: per-function summaries collected during the
// Run phase (summary.go) and a module-wide call graph condensed into
// strongly connected components, over which the transitive closures
// (locks acquired, blocking effects, unbounded loops, termination-signal
// reachability) are computed bottom-up in the Finish phase.
//
// Bounded treatment of dynamic calls: interface method calls resolve to
// every module type implementing the interface, capped at ifaceFanoutCap
// implementations (beyond that the call is treated as opaque); calls
// through plain function values add no edges. Both keep the analysis
// sound enough to be useful without chasing unbounded aliasing.
type interp struct {
	visited   map[string]bool
	funcs     map[string]*funcSummary
	order     []string // summary creation order: deterministic processing
	named     []*types.Named
	namedSeen map[string]bool

	resolved   bool
	edges      int
	ifaceEdges int
	sccCount   int
	lockGraph  map[string][]lockEdge
	lockDisp   map[string]string
	wgWaited   map[string]bool
}

// ifaceFanoutCap bounds how many concrete implementations a single
// interface call site may fan out to before it is treated as opaque.
const ifaceFanoutCap = 10

// chainCap bounds witness chain length in messages.
const chainCap = 6

func newInterp() *interp {
	return &interp{
		visited:   map[string]bool{},
		funcs:     map[string]*funcSummary{},
		namedSeen: map[string]bool{},
	}
}

// visit summarizes every function of one package. Each of the three
// interprocedural analyzers calls it from Run; the first one in wins.
func (ip *interp) visit(pass *Pass) {
	if ip.visited[pass.PkgPath] {
		return
	}
	ip.visited[pass.PkgPath] = true
	ip.collectNamed(pass.Pkg)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(fn)
			if fn.Name() == "init" {
				// A package may declare several; none is callable, so
				// each is keyed by where it stands.
				key += "@" + pass.Fset.Position(fd.Pos()).String()
			}
			ip.summarize(pass, key, funcDisp(fn), fd.Name.Pos(), fd.Body)
		}
		// Literals in top-level var initializers (and any other literal a
		// walker did not reach) become independent roots.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				ip.summarizeLit(pass, lit)
				return false
			}
			return true
		})
	}
}

// isExecPoolBlocking matches the exec pool's submit family: Map, Admit and
// Close wait on the pool's workers or its bounded queue.
func isExecPoolBlocking(fn *types.Func) bool {
	if !pathHasSuffix(funcPkgPath(fn), "internal/exec") {
		return false
	}
	switch fn.Name() {
	case "Map", "Admit", "Close":
		sig, ok := fn.Type().(*types.Signature)
		return ok && sig.Recv() != nil && typeIs(sig.Recv().Type(), "internal/exec", "Pool")
	}
	return false
}

// collectNamed harvests the package's named types for interface
// resolution.
func (ip *interp) collectNamed(pkg *types.Package) {
	if pkg == nil {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		key := pkg.Path() + "." + name
		if !ip.namedSeen[key] {
			ip.namedSeen[key] = true
			ip.named = append(ip.named, named)
		}
	}
}

// lockEdge is one observed acquisition order: while `from` was held,
// `to` was acquired — directly, or through the printed call chain.
type lockEdge struct {
	from, to string
	fromDisp string
	toDisp   string
	funcDisp string
	pos      token.Position
	chain    []string // callee display chain to the acquisition, nil = direct
}

// finish resolves interface calls, condenses the call graph into SCCs,
// and computes the bottom-up closures. Idempotent: the first Finish-phase
// analyzer to ask performs the work.
func (ip *interp) finish() {
	if ip.resolved {
		return
	}
	ip.resolved = true
	ip.resolveIfaces()
	ip.countEdges()
	ip.computeClosures()
	ip.buildLockGraph()
	ip.collectWgWaits()
}

// resolveIfaces turns interface call sites into concrete call edges,
// bounded by ifaceFanoutCap.
func (ip *interp) resolveIfaces() {
	// Index module methods by name so each site only tests types that
	// even have a method of the right name.
	byMethod := map[string][]*types.Named{}
	for _, n := range ip.named {
		ms := types.NewMethodSet(types.NewPointer(n))
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok {
				byMethod[fn.Name()] = append(byMethod[fn.Name()], n)
			}
		}
	}
	for _, key := range ip.order {
		s := ip.funcs[key]
		for _, site := range s.ifaces {
			var impls []*types.Func
			for _, n := range byMethod[site.method] {
				if !types.Implements(types.NewPointer(n), site.iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, n.Obj().Pkg(), site.method)
				if fn, ok := obj.(*types.Func); ok {
					impls = append(impls, fn)
				}
				if len(impls) > ifaceFanoutCap {
					break
				}
			}
			if len(impls) == 0 || len(impls) > ifaceFanoutCap {
				continue // opaque: no module impls, or fan-out too wide
			}
			for _, fn := range impls {
				k := funcKey(fn)
				if _, ok := ip.funcs[k]; !ok {
					continue
				}
				s.calls = append(s.calls, callSite{
					callee: k, disp: funcDisp(fn), pos: site.pos, held: site.held,
				})
				ip.ifaceEdges++
			}
		}
	}
}

func (ip *interp) countEdges() {
	for _, key := range ip.order {
		for _, c := range ip.funcs[key].calls {
			if _, ok := ip.funcs[c.callee]; ok {
				ip.edges++
			}
		}
	}
}

// computeClosures runs Tarjan's SCC algorithm over the call graph and
// propagates summaries bottom-up: SCCs pop in reverse topological order
// (callees before callers), so by the time a component is processed every
// callee outside it is final; within a component the members iterate to a
// fixpoint (witnesses are first-wins, sets only grow, so it terminates).
func (ip *interp) computeClosures() {
	sccs := ip.tarjan()
	ip.sccCount = len(sccs)
	for _, scc := range sccs {
		for changed := true; changed; {
			changed = false
			for _, key := range scc {
				if ip.propagate(ip.funcs[key]) {
					changed = true
				}
			}
		}
	}
}

// propagate folds local facts and callee closures into s. Reports whether
// anything changed.
func (ip *interp) propagate(s *funcSummary) bool {
	changed := false
	if s.mayAcquire == nil {
		s.mayAcquire = map[string]*acqWitness{}
	}
	for i := range s.acquires {
		a := &s.acquires[i]
		if a.class != "" && s.mayAcquire[a.class] == nil {
			s.mayAcquire[a.class] = &acqWitness{disp: a.disp, write: a.write, pos: a.pos}
			changed = true
		}
	}
	if s.blockW == nil && len(s.blocks) > 0 {
		b := s.blocks[0]
		s.blockW = &effectWitness{what: b.what, pos: b.pos}
		changed = true
	}
	if s.loopW == nil && s.loopPos.Line != 0 {
		s.loopW = &effectWitness{what: "unbounded for-loop", pos: s.loopPos}
		changed = true
	}
	if s.doneSignal && !s.doneReach {
		s.doneReach = true
		changed = true
	}
	for _, c := range s.calls {
		cs, ok := ip.funcs[c.callee]
		if !ok || cs == s {
			continue
		}
		for class, w := range cs.mayAcquire {
			if s.mayAcquire[class] == nil {
				s.mayAcquire[class] = &acqWitness{
					disp: w.disp, write: w.write, pos: w.pos,
					chain: extendChain(cs.disp, w.chain),
				}
				changed = true
			}
		}
		if s.blockW == nil && cs.blockW != nil {
			s.blockW = &effectWitness{
				what: cs.blockW.what, pos: cs.blockW.pos,
				chain: extendChain(cs.disp, cs.blockW.chain),
			}
			changed = true
		}
		if s.loopW == nil && cs.loopW != nil {
			s.loopW = &effectWitness{
				what: cs.loopW.what, pos: cs.loopW.pos,
				chain: extendChain(cs.disp, cs.loopW.chain),
			}
			changed = true
		}
		if cs.doneReach && !s.doneReach {
			s.doneReach = true
			changed = true
		}
	}
	return changed
}

func extendChain(head string, tail []string) []string {
	chain := append([]string{head}, tail...)
	if len(chain) > chainCap {
		chain = chain[:chainCap]
	}
	return chain
}

// tarjan returns the call graph's strongly connected components in
// reverse topological order of the condensation (sinks first).
func (ip *interp) tarjan() [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	// Iterative Tarjan: an explicit frame stack keeps deep call chains
	// from overflowing the goroutine stack on large modules.
	type frame struct {
		key  string
		edge int
	}
	var visit func(root string)
	visit = func(root string) {
		frames := []frame{{key: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			s := ip.funcs[f.key]
			if f.edge == 0 {
				index[f.key] = next
				low[f.key] = next
				next++
				stack = append(stack, f.key)
				onStack[f.key] = true
			}
			advanced := false
			for f.edge < len(s.calls) {
				c := s.calls[f.edge]
				f.edge++
				if _, ok := ip.funcs[c.callee]; !ok || c.callee == f.key {
					continue
				}
				if _, seen := index[c.callee]; !seen {
					frames = append(frames, frame{key: c.callee})
					advanced = true
					break
				}
				if onStack[c.callee] && index[c.callee] < low[f.key] {
					low[f.key] = index[c.callee]
				}
			}
			if advanced {
				continue
			}
			// All edges explored: pop the frame, fold lowlink upward.
			if len(frames) > 1 {
				parent := &frames[len(frames)-2]
				if low[f.key] < low[parent.key] {
					low[parent.key] = low[f.key]
				}
			}
			if low[f.key] == index[f.key] {
				var scc []string
				for {
					k := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[k] = false
					scc = append(scc, k)
					if k == f.key {
						break
					}
				}
				sccs = append(sccs, scc)
			}
			frames = frames[:len(frames)-1]
		}
	}
	for _, key := range ip.order {
		if _, seen := index[key]; !seen {
			visit(key)
		}
	}
	return sccs
}

// buildLockGraph derives the module-wide lock-order graph: an edge A→B
// for every site that acquires class B — locally or through a call chain
// — while class A is held. First witness per (A,B) pair wins.
func (ip *interp) buildLockGraph() {
	ip.lockGraph = map[string][]lockEdge{}
	ip.lockDisp = map[string]string{}
	seen := map[[2]string]bool{}
	add := func(e lockEdge) {
		k := [2]string{e.from, e.to}
		if seen[k] {
			return
		}
		seen[k] = true
		ip.lockDisp[e.from] = e.fromDisp
		ip.lockDisp[e.to] = e.toDisp
		ip.lockGraph[e.from] = append(ip.lockGraph[e.from], e)
	}
	for _, key := range ip.order {
		s := ip.funcs[key]
		for _, a := range s.acquires {
			if a.class == "" {
				continue
			}
			for _, h := range a.held {
				if h.class == "" {
					continue
				}
				add(lockEdge{
					from: h.class, to: a.class, fromDisp: h.disp, toDisp: a.disp,
					funcDisp: s.disp, pos: a.pos,
				})
			}
		}
		for _, c := range s.calls {
			cs, ok := ip.funcs[c.callee]
			if !ok || len(c.held) == 0 {
				continue
			}
			for _, h := range c.held {
				if h.class == "" {
					continue
				}
				for class, w := range cs.mayAcquire {
					add(lockEdge{
						from: h.class, to: class, fromDisp: h.disp, toDisp: w.disp,
						funcDisp: s.disp, pos: c.pos,
						chain: extendChain(cs.disp, w.chain),
					})
				}
			}
		}
	}
}

// collectWgWaits gathers every WaitGroup identity the module Wait()s on,
// for goleak's "joined via a WaitGroup whose Wait is reachable" rule.
func (ip *interp) collectWgWaits() {
	ip.wgWaited = map[string]bool{}
	for _, key := range ip.order {
		for _, w := range ip.funcs[key].wgWaits {
			ip.wgWaited[w] = true
		}
	}
}

// graphStats reports call-graph sizing for the driver's -stats flag.
func (ip *interp) graphStats(put func(name string, v int64)) {
	put("callgraph_functions", int64(len(ip.funcs)))
	put("callgraph_edges", int64(ip.edges))
	put("callgraph_iface_edges", int64(ip.ifaceEdges))
	put("callgraph_sccs", int64(ip.sccCount))
	put("lockorder_classes", int64(len(ip.lockDisp)))
	lockEdges := 0
	for _, es := range ip.lockGraph {
		lockEdges += len(es)
	}
	put("lockorder_edges", int64(lockEdges))
}

// inInternal reports whether pkgPath is under an internal/ tree — the
// scope of the goleak rule.
func inInternal(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") || strings.HasPrefix(pkgPath, "internal/")
}
