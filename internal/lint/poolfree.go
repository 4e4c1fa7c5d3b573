package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolPair names one acquire/release pair of a pooled resource.
type poolPair struct {
	pkgSuffix string // package path suffix owning the pair
	get, put  string
	noun      string // what leaks, for messages
}

// poolPairs are the pooled-scratch conventions of the read path: blocked
// scans draw distance buffers from bufferpool.GetFloats and scan/merge
// heaps from topk.GetHeap; both must go back on every path or the free
// list silently degrades to plain allocation.
var poolPairs = []poolPair{
	{pkgSuffix: "internal/bufferpool", get: "GetFloats", put: "PutFloats", noun: "pooled buffer"},
	{pkgSuffix: "internal/bufferpool", get: "GetInt32s", put: "PutInt32s", noun: "pooled row list"},
	{pkgSuffix: "internal/bitset", get: "Get", put: "Put", noun: "pooled bitset"},
	{pkgSuffix: "internal/topk", get: "GetHeap", put: "PutHeap", noun: "pooled heap"},
}

// NewPoolFree returns the poolfree analyzer: every bufferpool/topk scratch
// acquisition must be matched by its release (or a defer of it) on every
// path out of the acquiring function. A value that escapes — stored,
// passed to another function, captured by a closure, returned — transfers
// ownership and stops being tracked.
func NewPoolFree() *Analyzer {
	a := &Analyzer{
		Name: "poolfree",
		Doc:  "pooled scratch (bufferpool.GetFloats, topk.GetHeap) must be released on all return paths",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, scope := range functionScopes(f) {
				checkPoolScope(pass, scope)
			}
		}
	}
	return a
}

// functionScopes collects every function body in the file — declarations
// and function literals — as independent analysis scopes. A FuncLit is its
// own scope: an acquisition inside it must be released inside it (or
// escape), and an outer acquisition used inside it counts as an escape.
func functionScopes(f *ast.File) []*ast.BlockStmt {
	var scopes []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				scopes = append(scopes, n.Body)
			}
		case *ast.FuncLit:
			scopes = append(scopes, n.Body)
		}
		return true
	})
	return scopes
}

// poolSpec abstracts one resource discipline over the shared release-flow
// interpreter: how the resource reads in messages and what constitutes a
// release. poolfree instantiates it per get/put pair; blockpin instantiates
// it for mapping pins (method acquire, call of the returned release).
type poolSpec struct {
	noun    string // what leaks, for messages
	getDesc string // how the value was acquired, for messages
	relDesc string // how to release it, for messages
	// isRelease reports whether call releases the value held in v.
	isRelease func(info *types.Info, call *ast.CallExpr, v types.Object) bool
}

// spec adapts a get/put pair to the shared flow: release is a call to the
// pair's put function with the tracked value among its arguments.
func (p poolPair) spec() poolSpec {
	return poolSpec{
		noun:    p.noun,
		getDesc: p.get,
		relDesc: p.pkgSuffix + "." + p.put,
		isRelease: func(info *types.Info, call *ast.CallExpr, v types.Object) bool {
			if !isCallTo(info, call, p.pkgSuffix, p.put) {
				return false
			}
			for _, arg := range call.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.Uses[id] == v {
					return true
				}
			}
			return false
		},
	}
}

// poolAcq is one tracked acquisition site.
type poolAcq struct {
	spec poolSpec
	v    types.Object    // the variable holding the pooled value
	errv types.Object    // error result paired with the acquisition (nil if none)
	stmt *ast.AssignStmt // the acquiring statement
}

func checkPoolScope(pass *Pass, body *ast.BlockStmt) {
	// Find acquisitions directly in this scope (not in nested FuncLits).
	var acqs []poolAcq
	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			for _, pair := range poolPairs {
				if !isCallTo(pass.Info, call, pair.pkgSuffix, pair.get) {
					continue
				}
				if len(n.Lhs) != 1 {
					return
				}
				id, ok := n.Lhs[0].(*ast.Ident)
				if !ok {
					// Stored into an index or field expression
					// (m.heaps[i] = topk.GetHeap(k)): ownership passes
					// to what holds it, as for any other store.
					return
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "result of %s.%s is discarded: the %s can never be released with %s",
						pair.pkgSuffix, pair.get, pair.noun, pair.put)
					return
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj != nil {
					acqs = append(acqs, poolAcq{spec: pair.spec(), v: obj, stmt: n})
				}
			}
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				for _, pair := range poolPairs {
					if isCallTo(pass.Info, call, pair.pkgSuffix, pair.get) {
						pass.Reportf(call.Pos(), "result of %s.%s is discarded: the %s can never be released with %s",
							pair.pkgSuffix, pair.get, pair.noun, pair.put)
					}
				}
			}
		}
	})
	flowAcqs(pass, body, acqs)
}

// flowAcqs runs the release-flow interpreter over a scope for each tracked
// acquisition, reporting values still live when the scope falls off its
// end. (Return-path leaks are reported by the interpreter itself.)
func flowAcqs(pass *Pass, body *ast.BlockStmt, acqs []poolAcq) {
	for _, acq := range acqs {
		fl := &poolFlow{pass: pass, acq: acq}
		st, term, _ := fl.flowList(body.List, pfState{})
		// Falling off the end of the scope (void function or closure) with
		// the value still live and unreleased is a leak too.
		if !term && st.active && !st.freed && !st.escaped {
			pass.Reportf(acq.stmt.Pos(), "%s from %s is not released before the function returns: call %s or defer it",
				acq.spec.noun, acq.spec.getDesc, acq.spec.relDesc)
		}
	}
}

// inspectScope walks a function body without descending into nested
// function literals (which are separate scopes).
func inspectScope(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// pfState is the abstract state of one acquisition along one control-flow
// path: active once the acquiring statement has executed, freed once the
// matching put (or a defer of it) has, escaped once ownership left the
// function.
type pfState struct {
	active, freed, escaped bool
}

func mergePf(a, b pfState) pfState {
	if !a.active {
		return b
	}
	if !b.active {
		return a
	}
	return pfState{active: true, freed: a.freed && b.freed, escaped: a.escaped || b.escaped}
}

// poolFlow evaluates the statement tree for one acquisition. It is a
// lexical abstract interpreter, not a full CFG: branches merge
// conservatively (released only if released on every branch), loops are
// assumed to run at least once, and goto abandons tracking. That is
// deliberately the cheap end of the design space — the conventions it
// checks keep release sites structured, and //lint:allow covers the rest.
type poolFlow struct {
	pass *Pass
	acq  poolAcq
}

// flowList evaluates stmts under st. It returns the fall-through state,
// whether the list terminated (return/panic/branch), and the states
// carried by break statements for the enclosing loop or switch to merge.
func (fl *poolFlow) flowList(stmts []ast.Stmt, st pfState) (out pfState, terminated bool, breaks []pfState) {
	for _, s := range stmts {
		var term bool
		var br []pfState
		st, term, br = fl.flowStmt(s, st)
		breaks = append(breaks, br...)
		if term {
			return st, true, breaks
		}
	}
	return st, false, breaks
}

func (fl *poolFlow) flowStmt(s ast.Stmt, st pfState) (out pfState, terminated bool, breaks []pfState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s == fl.acq.stmt {
			return pfState{active: true}, false, nil
		}
		st = fl.applyUses(s, st)
		return st, false, nil

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" && fl.pass.Info.Uses[id] == nil {
				return st, true, nil // builtin panic terminates the path
			}
		}
		return fl.applyUses(s, st), false, nil

	case *ast.DeferStmt:
		if st.active && fl.deferReleases(s) {
			st.freed = true
			return st, false, nil
		}
		return fl.applyUses(s, st), false, nil

	case *ast.ReturnStmt:
		if st.active && !st.freed && !st.escaped {
			if fl.usesValue(s) {
				return st, true, nil // returned to the caller: ownership transfer
			}
			fl.pass.Reportf(s.Pos(), "%s from %s (line %d) is not released on this return path: call %s or defer it after acquisition",
				fl.acq.spec.noun, fl.acq.spec.getDesc, fl.pass.Fset.Position(fl.acq.stmt.Pos()).Line,
				fl.acq.spec.relDesc)
		}
		return st, true, nil

	case *ast.BlockStmt:
		return fl.flowList(s.List, st)

	case *ast.IfStmt:
		if s.Init != nil {
			st, _, _ = fl.flowStmt(s.Init, st)
		}
		st = fl.applyExprUses(s.Cond, st)
		// Error-guard refinement for (value, err) acquisitions: on the
		// `err != nil` branch the acquire failed and the tracked value is
		// its zero value — releasing is a no-op, there is nothing to leak —
		// so tracking stops on that branch (and symmetrically, `err == nil`
		// stops tracking on the else branch).
		thenEntry, elseEntry := st, st
		if fl.errGuard(s.Cond, token.NEQ) {
			thenEntry.active = false
		} else if fl.errGuard(s.Cond, token.EQL) {
			elseEntry.active = false
		}
		thenSt, thenTerm, thenBr := fl.flowList(s.Body.List, thenEntry)
		elseSt, elseTerm := elseEntry, false
		var elseBr []pfState
		if s.Else != nil {
			elseSt, elseTerm, elseBr = fl.flowStmt(s.Else, elseEntry)
		}
		breaks = append(thenBr, elseBr...)
		switch {
		case thenTerm && elseTerm:
			return st, true, breaks
		case thenTerm:
			return elseSt, false, breaks
		case elseTerm:
			return thenSt, false, breaks
		default:
			return mergePf(thenSt, elseSt), false, breaks
		}

	case *ast.ForStmt:
		if s.Init != nil {
			st, _, _ = fl.flowStmt(s.Init, st)
		}
		if s.Cond != nil {
			st = fl.applyExprUses(s.Cond, st)
		}
		bodySt, bodyTerm, bodyBreaks := fl.flowList(s.Body.List, st)
		out = st
		if !bodyTerm {
			out = mergePf(out, bodySt)
		}
		for _, b := range bodyBreaks {
			out = mergePf(out, b)
		}
		// An infinite loop whose only exits are returns/breaks already
		// handled: if cond == nil and every path terminates, treat the
		// loop as terminating the list when it cannot fall through.
		if s.Cond == nil && bodyTerm && len(bodyBreaks) == 0 {
			return out, true, nil
		}
		return out, false, nil

	case *ast.RangeStmt:
		st = fl.applyExprUses(s.X, st)
		bodySt, bodyTerm, bodyBreaks := fl.flowList(s.Body.List, st)
		out = st
		if !bodyTerm {
			out = mergePf(out, bodySt)
		}
		for _, b := range bodyBreaks {
			out = mergePf(out, b)
		}
		return out, false, nil

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return fl.flowCases(s, st)

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			return st, true, []pfState{st}
		case token.CONTINUE:
			return st, true, nil
		default: // goto / labeled jumps: abandon tracking rather than guess
			if st.active {
				st.escaped = true
			}
			return st, false, nil
		}

	case *ast.LabeledStmt:
		return fl.flowStmt(s.Stmt, st)

	case *ast.GoStmt:
		return fl.applyUses(s, st), false, nil

	default:
		return fl.applyUses(s, st), false, nil
	}
}

// flowCases merges the clause bodies of a switch or select. A missing
// default leaves a fall-past path carrying the entry state.
func (fl *poolFlow) flowCases(s ast.Stmt, st pfState) (pfState, bool, []pfState) {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _, _ = fl.flowStmt(s.Init, st)
		}
		if s.Tag != nil {
			st = fl.applyExprUses(s.Tag, st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var states []pfState
	allTerm := true
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				st = fl.applyExprUses(e, st)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				st, _, _ = fl.flowStmt(c.Comm, st)
			}
			list = c.Body
		}
		cs, term, br := fl.flowList(list, st)
		// Unlabeled breaks inside a switch/select exit the switch itself:
		// each carries its own fall-past state.
		states = append(states, br...)
		if !term {
			states = append(states, cs)
			allTerm = false
		} else if len(br) > 0 {
			allTerm = false
		}
	}
	if !hasDefault {
		states = append(states, st)
		allTerm = false
	}
	if allTerm && len(states) == 0 {
		return st, true, nil
	}
	out := pfState{}
	first := true
	for _, s := range states {
		if first {
			out, first = s, false
		} else {
			out = mergePf(out, s)
		}
	}
	return out, false, nil
}

// deferReleases reports whether a defer statement releases the tracked
// value: either `defer Put(v)` / `defer v.Release()` directly or a defer
// of a closure containing the release call.
func (fl *poolFlow) deferReleases(d *ast.DeferStmt) bool {
	if fl.isReleaseCall(d.Call) {
		return true
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && fl.isReleaseCall(call) {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

func (fl *poolFlow) isReleaseCall(call *ast.CallExpr) bool {
	return fl.acq.spec.isRelease(fl.pass.Info, call, fl.acq.v)
}

// errGuard reports whether cond compares the acquisition's paired error
// against nil with the given operator (`err != nil` for NEQ, `err == nil`
// for EQL).
func (fl *poolFlow) errGuard(cond ast.Expr, op token.Token) bool {
	if fl.acq.errv == nil {
		return false
	}
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || b.Op != op {
		return false
	}
	x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
	if isNilExpr(fl.pass.Info, x) {
		x, y = y, x
	}
	if !isNilExpr(fl.pass.Info, y) {
		return false
	}
	id, ok := x.(*ast.Ident)
	return ok && fl.pass.Info.Uses[id] == fl.acq.errv
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}

// usesValue reports whether the statement mentions the tracked variable at
// all.
func (fl *poolFlow) usesValue(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && fl.pass.Info.Uses[id] == fl.acq.v {
			found = true
		}
		return !found
	})
	return found
}

// applyUses classifies every mention of the tracked variable in a
// statement: a put call releases it; dereferences, indexing, field and
// method access, and comparisons are plain uses; anything else — passing
// it to another function, storing it, sending it, capturing it in a
// closure, taking its address — makes ownership escape and ends tracking.
func (fl *poolFlow) applyUses(s ast.Stmt, st pfState) pfState {
	if !st.active || st.escaped {
		return st
	}
	var stack []ast.Node
	ast.Inspect(s, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok && fl.pass.Info.Uses[id] == fl.acq.v {
			switch fl.classifyUse(stack, id) {
			case useFreed:
				st.freed = true
			case useEscape:
				st.escaped = true
			}
		}
		stack = append(stack, n)
		return true
	})
	return st
}

func (fl *poolFlow) applyExprUses(e ast.Expr, st pfState) pfState {
	if e == nil {
		return st
	}
	return fl.applyUses(&ast.ExprStmt{X: e}, st)
}

type useKind int

const (
	usePlain useKind = iota
	useFreed
	useEscape
)

func (fl *poolFlow) classifyUse(stack []ast.Node, id *ast.Ident) useKind {
	// A mention inside a nested function literal is a capture: the
	// closure's lifetime is unknown here, so ownership escapes (defer-put
	// closures are recognized earlier, before this classification).
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return useEscape
		}
	}
	if len(stack) == 0 {
		return useEscape
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.StarExpr:
		return usePlain // *v: reading through the pooled pointer
	case *ast.SelectorExpr:
		if p.X == id {
			// v.Release() for a method-released resource frees it; every
			// other field or method access is a plain read.
			if len(stack) >= 2 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) && fl.isReleaseCall(call) {
					return useFreed
				}
			}
			return usePlain // v.field / v.Method(...)
		}
	case *ast.IndexExpr:
		if p.X == id {
			return usePlain // v[i]
		}
	case *ast.BinaryExpr:
		return usePlain // comparisons (v != nil)
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == ast.Expr(id) {
			// v(): calling a release-shaped value frees it; calling any
			// other tracked func is a plain use.
			if fl.isReleaseCall(p) {
				return useFreed
			}
			return usePlain
		}
		for _, arg := range p.Args {
			if ast.Unparen(arg) == ast.Expr(id) {
				if fl.isReleaseCall(p) {
					return useFreed
				}
				return useEscape // handed to another function
			}
		}
		return usePlain
	}
	return useEscape
}
