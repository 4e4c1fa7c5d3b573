package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// This file builds the per-function summaries the interprocedural
// analyzers (lockorder, lockdiscipline, goleak) consume. One summary is
// computed per function body — declarations and function literals alike —
// during the Run phase, while the AST and type info are in hand; the
// Finish phase (callgraph.go) then works on summaries only, so the
// module-wide pass never re-walks syntax.

// heldLock is one mutex held at a program point. class is the module-wide
// lock identity ("pkgpath.Type.field" for locks that are fields of named
// types, "pkgpath.var" for package-level locks, "" for function-local
// locks that cannot alias across functions); disp is the short display
// form used in messages (e.g. "DB.mu").
type heldLock struct {
	class string
	disp  string
	pos   token.Position // where it was locked
}

// callSite is one statically resolved call out of a function, with the
// set of locks the caller holds lexically at the site.
type callSite struct {
	callee   string // funcKey of the callee
	disp     string // callee display name
	pos      token.Position
	held     []heldLock
	deferred bool // deferred calls run with an unknowable held set; kept empty
}

// ifaceSite is a dynamic call through an interface method, resolved to
// concrete module methods in the Finish phase (bounded fan-out).
type ifaceSite struct {
	iface  *types.Interface
	method string
	pos    token.Position
	held   []heldLock
}

// acquireSite is one Lock/RLock call, with the locks already held before
// it — the raw material of the lock-order graph.
type acquireSite struct {
	class string
	disp  string
	write bool // Lock vs RLock
	pos   token.Position
	held  []heldLock
}

// blockSite is one operation that can park the goroutine for an unbounded
// time: channel send/receive, defaultless select, range over a channel,
// sync.WaitGroup.Wait, or submitting to the shared exec pool.
type blockSite struct {
	what string
	pos  token.Position
	held []heldLock
}

// spawnSite is one `go` statement. callee is the funcKey of the spawned
// function ("" when the target is a function value the analysis cannot
// resolve — bounded treatment: such spawns are not checked).
type spawnSite struct {
	pos    token.Position
	callee string
	disp   string
}

// funcSummary is everything the Finish-phase analyses need to know about
// one function without re-reading its body.
type funcSummary struct {
	key  string
	disp string
	pkg  string
	pos  token.Position

	calls    []callSite
	ifaces   []ifaceSite
	acquires []acquireSite
	blocks   []blockSite
	spawns   []spawnSite

	// loopPos is the position of a `for` with no condition — the marker of
	// a potentially unbounded loop. Zero Line means none.
	loopPos token.Position
	// doneSignal: the body observes a termination signal — ctx.Done()/
	// ctx.Err(), a receive or select case on a done-ish channel, a
	// comma-ok receive, or ranging over a channel (ends on close).
	doneSignal bool
	// wgDones / wgWaits record WaitGroup identities (class, or
	// "local:<expr>" for locals) the body Done()s or Wait()s on.
	wgDones []string
	wgWaits []string

	// Computed by the Finish-phase closure (callgraph.go):
	mayAcquire map[string]*acqWitness
	blockW     *effectWitness
	loopW      *effectWitness
	doneReach  bool
}

// acqWitness explains how a function comes to acquire a lock class: the
// display chain of callees leading to the Lock call.
type acqWitness struct {
	disp  string
	write bool
	chain []string
	pos   token.Position
}

// effectWitness explains a transitive effect (blocking op, unbounded
// loop): the chain of callee display names and the effect's position.
type effectWitness struct {
	what  string
	chain []string
	pos   token.Position
}

// funcKey returns the stable module-wide identity of a function: the
// go/types full name of its generic origin, identical whether the object
// came from source type-checking or from export data.
func funcKey(fn *types.Func) string { return fn.Origin().FullName() }

// funcDisp renders a short human name: pkg.Func or pkg.Type.Method.
func funcDisp(fn *types.Func) string {
	base := "?"
	if fn.Pkg() != nil {
		base = path.Base(fn.Pkg().Path())
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, tn, ok := namedTypePath(sig.Recv().Type()); ok {
			return base + "." + tn + "." + fn.Name()
		}
	}
	return base + "." + fn.Name()
}

// lockIdentity classifies the receiver expression of a Lock/Unlock (or a
// WaitGroup Done/Wait): a module-wide class plus a display name. Locks
// that are fields of named types class by (type, field) — every instance
// of DB.mu is one class, the abstraction the lock-order graph is keyed
// on. Package-level locks class by (package, var). Everything else (a
// local mutex, an element of a map) gets class "" — still tracked as held
// within a function, but never related across functions.
func lockIdentity(pass *Pass, e ast.Expr) (class, disp string) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if t := pass.Info.Types[x.X].Type; t != nil {
			if p, n, ok := namedTypePath(t); ok {
				return p + "." + n + "." + x.Sel.Name, n + "." + x.Sel.Name
			}
		}
		if obj, ok := pass.Info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[x].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), obj.Pkg().Name() + "." + obj.Name()
		}
		// t.Lock() through an embedded mutex: class by the outer type.
		if t := pass.Info.Types[x].Type; t != nil && embedsMutex(t) {
			if p, n, ok := namedTypePath(t); ok {
				return p + "." + n + ".Mutex", n + ".Mutex"
			}
		}
	}
	return "", types.ExprString(e)
}

// wgIdentity is lockIdentity adapted for WaitGroup join matching: local
// WaitGroups get a name-keyed pseudo-class so a literal body's wg.Done()
// can match the spawner's wg.Wait().
func wgIdentity(pass *Pass, e ast.Expr) string {
	class, disp := lockIdentity(pass, e)
	if class != "" {
		return class
	}
	return "local:" + disp
}

// summarizer walks one function body, tracking lexically held locks
// (clone-per-branch, deferred unlocks hold to function end) while
// recording the interprocedural facts.
type summarizer struct {
	pass *Pass
	ip   *interp
	sum  *funcSummary
}

// summarize builds (and registers) the summary for one function body.
func (ip *interp) summarize(pass *Pass, key, disp string, pos token.Pos, body *ast.BlockStmt) *funcSummary {
	if s, ok := ip.funcs[key]; ok {
		return s
	}
	s := &funcSummary{key: key, disp: disp, pkg: pass.PkgPath, pos: pass.Fset.Position(pos)}
	ip.funcs[key] = s
	ip.order = append(ip.order, key)
	sm := &summarizer{pass: pass, ip: ip, sum: s}
	sm.walkList(body.List, map[string]heldLock{})
	return s
}

func (sm *summarizer) heldSnapshot(held map[string]heldLock) []heldLock {
	if len(held) == 0 {
		return nil
	}
	out := make([]heldLock, 0, len(held))
	for _, h := range held {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].disp < out[j].disp })
	return out
}

func cloneHeldLocks(held map[string]heldLock) map[string]heldLock {
	c := make(map[string]heldLock, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (sm *summarizer) walkList(stmts []ast.Stmt, held map[string]heldLock) {
	for _, s := range stmts {
		sm.walkStmt(s, held)
	}
}

func (sm *summarizer) walkStmt(s ast.Stmt, held map[string]heldLock) {
	switch s := s.(type) {
	case nil:
		return
	case *ast.ExprStmt:
		sm.inspectExpr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sm.inspectExpr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		sm.block("channel send", s.Pos(), held)
		sm.inspectExpr(s.Chan, held)
		sm.inspectExpr(s.Value, held)
	case *ast.AssignStmt:
		// A two-valued receive (v, ok := <-ch) observes channel close —
		// a termination signal for the enclosing goroutine.
		if len(s.Lhs) == 2 && len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				sm.sum.doneSignal = true
			}
		}
		for _, e := range s.Rhs {
			sm.inspectExpr(e, held)
		}
		for _, e := range s.Lhs {
			sm.inspectExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			sm.inspectExpr(e, held)
		}
	case *ast.IfStmt:
		sm.walkStmt(s.Init, held)
		sm.inspectExpr(s.Cond, held)
		sm.walkList(s.Body.List, cloneHeldLocks(held))
		if s.Else != nil {
			sm.walkStmt(s.Else, cloneHeldLocks(held))
		}
	case *ast.ForStmt:
		if s.Cond == nil && sm.sum.loopPos.Line == 0 {
			sm.sum.loopPos = sm.pass.Fset.Position(s.Pos())
		}
		sm.walkStmt(s.Init, held)
		if s.Cond != nil {
			sm.inspectExpr(s.Cond, held)
		}
		sm.walkStmt(s.Post, held)
		sm.walkList(s.Body.List, cloneHeldLocks(held))
	case *ast.RangeStmt:
		if t := sm.pass.Info.Types[s.X].Type; t != nil {
			if _, isChan := types.Unalias(t).Underlying().(*types.Chan); isChan {
				sm.block("range over channel", s.Pos(), held)
				sm.sum.doneSignal = true // ends when the channel closes
			}
		}
		sm.inspectExpr(s.X, held)
		sm.walkList(s.Body.List, cloneHeldLocks(held))
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			sm.block("select", s.Pos(), held)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			sm.walkComm(cc.Comm, cloneHeldLocks(held))
			sm.walkList(cc.Body, cloneHeldLocks(held))
		}
	case *ast.SwitchStmt:
		sm.walkStmt(s.Init, held)
		if s.Tag != nil {
			sm.inspectExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			sm.walkList(c.(*ast.CaseClause).Body, cloneHeldLocks(held))
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			sm.walkList(c.(*ast.CaseClause).Body, cloneHeldLocks(held))
		}
	case *ast.BlockStmt:
		sm.walkList(s.List, cloneHeldLocks(held))
	case *ast.LabeledStmt:
		sm.walkStmt(s.Stmt, held)
	case *ast.DeferStmt:
		// Deferred calls run at return with an unknowable held set (later
		// defers may have released locks); record the edge with no held
		// locks so the callee's effects still propagate upward, and keep a
		// deferred unlock holding for the rest of the body (by not
		// processing the Unlock here).
		sm.call(s.Call, map[string]heldLock{}, true)
	case *ast.GoStmt:
		sm.spawn(s)
	}
}

// walkComm processes one select comm clause. The channel operation itself
// is NOT a block site — blocking is the select's property (recorded by the
// caller when no default clause exists; with a default every comm is a
// non-blocking attempt) — but done-channel receives still count as a
// termination signal and subexpressions are still scanned for calls.
func (sm *summarizer) walkComm(comm ast.Stmt, held map[string]heldLock) {
	noteRecv := func(e ast.Expr) bool {
		if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			sm.noteDoneRecv(u.X)
			sm.inspectExpr(u.X, held)
			return true
		}
		return false
	}
	switch s := comm.(type) {
	case nil:
	case *ast.SendStmt:
		sm.inspectExpr(s.Chan, held)
		sm.inspectExpr(s.Value, held)
	case *ast.AssignStmt:
		if len(s.Lhs) == 2 {
			sm.sum.doneSignal = true // comma-ok receive observes close
		}
		for _, e := range s.Rhs {
			if !noteRecv(e) {
				sm.inspectExpr(e, held)
			}
		}
	case *ast.ExprStmt:
		if !noteRecv(s.X) {
			sm.inspectExpr(s.X, held)
		}
	default:
		sm.walkStmt(comm, held)
	}
}

// inspectExpr scans one expression tree for receives, calls and literals.
// Function literals are their own summaries and are not descended into.
func (sm *summarizer) inspectExpr(e ast.Expr, held map[string]heldLock) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A literal reached here is being stored or passed, not
			// invoked: summarize it as an independent root (the immediate
			// call and go/defer cases intercept before this).
			sm.ip.summarizeLit(sm.pass, n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				sm.block("channel receive", n.Pos(), held)
				sm.noteDoneRecv(n.X)
			}
		case *ast.CallExpr:
			sm.call(n, held, false)
		}
		return true
	})
}

// noteDoneRecv marks the done signal when the received-from expression is
// a context Done() or a done-ish channel.
func (sm *summarizer) noteDoneRecv(ch ast.Expr) {
	ch = ast.Unparen(ch)
	if call, ok := ch.(*ast.CallExpr); ok {
		if fn := calleeFunc(sm.pass.Info, call); fn != nil && fn.Name() == "Done" {
			sm.sum.doneSignal = true
		}
		return
	}
	if doneishName(ch) {
		sm.sum.doneSignal = true
	}
}

// doneishName reports whether the channel expression's terminal name
// reads as a termination signal.
func doneishName(e ast.Expr) bool {
	name := ""
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	}
	name = strings.ToLower(name)
	for _, s := range []string{"done", "stop", "quit", "close", "exit"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

func (sm *summarizer) block(what string, pos token.Pos, held map[string]heldLock) {
	sm.sum.blocks = append(sm.sum.blocks, blockSite{
		what: what, pos: sm.pass.Fset.Position(pos), held: sm.heldSnapshot(held),
	})
}

// call processes one call expression: lock transitions, blocking
// specials, WaitGroup joins, done signals, and the call-graph edge.
func (sm *summarizer) call(call *ast.CallExpr, held map[string]heldLock, deferred bool) {
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		// Immediately invoked (or deferred) literal: summarize it and add
		// a real call edge — it runs on this goroutine.
		key, disp := sm.ip.summarizeLit(sm.pass, lit)
		sm.addCall(key, disp, call.Pos(), held, deferred)
		return
	}
	fn := calleeFunc(sm.pass.Info, call)
	if fn == nil {
		// Function value: opaque under the bounded treatment (the value's
		// definition site is still analyzed as its own root).
		return
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		// Dynamic dispatch: record for bounded Finish-phase resolution to
		// module implementations. ctx.Done()/ctx.Err() double as the
		// canonical goroutine termination signal.
		if funcPkgPath(fn) == "context" && (fn.Name() == "Done" || fn.Name() == "Err") {
			sm.sum.doneSignal = true
		}
		sm.ifaceCall(call, held)
		return
	}
	sel, _ := fun.(*ast.SelectorExpr)
	switch {
	case funcPkgPath(fn) == "sync" && sel != nil:
		switch fn.Name() {
		case "Lock", "RLock":
			if isMutexRecv(sm.pass.Info, sel.X) {
				class, disp := lockIdentity(sm.pass, sel.X)
				h := heldLock{class: class, disp: disp, pos: sm.pass.Fset.Position(call.Pos())}
				sm.sum.acquires = append(sm.sum.acquires, acquireSite{
					class: class, disp: disp, write: fn.Name() == "Lock",
					pos: h.pos, held: sm.heldSnapshot(held),
				})
				held[types.ExprString(sel.X)] = h
			}
			return
		case "Unlock", "RUnlock":
			if isMutexRecv(sm.pass.Info, sel.X) {
				delete(held, types.ExprString(sel.X))
			}
			return
		case "Wait":
			if recvT := sm.pass.Info.Types[sel.X].Type; recvT != nil && typeIs(recvT, "sync", "WaitGroup") {
				sm.block("sync.WaitGroup.Wait", call.Pos(), held)
				sm.sum.wgWaits = append(sm.sum.wgWaits, wgIdentity(sm.pass, sel.X))
			}
			return
		case "Done":
			if recvT := sm.pass.Info.Types[sel.X].Type; recvT != nil && typeIs(recvT, "sync", "WaitGroup") {
				sm.sum.wgDones = append(sm.sum.wgDones, wgIdentity(sm.pass, sel.X))
			}
			return
		}
	case isExecPoolBlocking(fn):
		sm.block("exec pool "+fn.Name(), call.Pos(), held)
	}
	if fn.Pkg() == nil {
		return
	}
	sm.addCall(funcKey(fn), funcDisp(fn), call.Pos(), held, deferred)
}

// isMutexRecv reports whether recv, the receiver of a Lock/Unlock call, is
// a sync.Mutex or sync.RWMutex, directly or through an embedded field.
func isMutexRecv(info *types.Info, recv ast.Expr) bool {
	t := info.Types[recv].Type
	if t == nil {
		return false
	}
	return typeIs(t, "sync", "Mutex") || typeIs(t, "sync", "RWMutex") || embedsMutex(t)
}

// embedsMutex reports whether t (or *t) is a struct embedding a sync.Mutex
// or sync.RWMutex, so that s.Lock() locks s itself.
func embedsMutex(t types.Type) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := types.Unalias(t).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && (typeIs(f.Type(), "sync", "Mutex") || typeIs(f.Type(), "sync", "RWMutex")) {
			return true
		}
	}
	return false
}

// ifaceCall records a dynamic interface method call for bounded Finish-
// phase resolution.
func (sm *summarizer) ifaceCall(call *ast.CallExpr, held map[string]heldLock) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := sm.pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	recvT := selection.Recv()
	iface, ok := types.Unalias(recvT).Underlying().(*types.Interface)
	if !ok {
		return
	}
	sm.sum.ifaces = append(sm.sum.ifaces, ifaceSite{
		iface: iface, method: sel.Sel.Name,
		pos: sm.pass.Fset.Position(call.Pos()), held: sm.heldSnapshot(held),
	})
}

func (sm *summarizer) addCall(key, disp string, pos token.Pos, held map[string]heldLock, deferred bool) {
	hs := sm.heldSnapshot(held)
	if deferred {
		hs = nil
	}
	sm.sum.calls = append(sm.sum.calls, callSite{
		callee: key, disp: disp, pos: sm.pass.Fset.Position(pos), held: hs, deferred: deferred,
	})
}

// spawn records a `go` statement and resolves its target.
func (sm *summarizer) spawn(s *ast.GoStmt) {
	pos := sm.pass.Fset.Position(s.Pos())
	// Arguments are evaluated on the spawning goroutine.
	for _, a := range s.Call.Args {
		sm.inspectExpr(a, map[string]heldLock{})
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		key, disp := sm.ip.summarizeLit(sm.pass, lit)
		sm.sum.spawns = append(sm.sum.spawns, spawnSite{pos: pos, callee: key, disp: disp})
		return
	}
	if fn := calleeFunc(sm.pass.Info, s.Call); fn != nil && fn.Pkg() != nil {
		sm.sum.spawns = append(sm.sum.spawns, spawnSite{pos: pos, callee: funcKey(fn), disp: funcDisp(fn)})
		return
	}
	// Function-value spawn: unresolvable, left unchecked (bounded
	// treatment — the value's definition site is analyzed as a root).
	sm.sum.spawns = append(sm.sum.spawns, spawnSite{pos: pos})
}

// summarizeLit registers a function literal as its own summary node,
// keyed by position so each literal is summarized exactly once however
// many walkers encounter it.
func (ip *interp) summarizeLit(pass *Pass, lit *ast.FuncLit) (key, disp string) {
	p := pass.Fset.Position(lit.Pos())
	key = fmt.Sprintf("%s.func@%s:%d:%d", pass.PkgPath, path.Base(p.Filename), p.Line, p.Column)
	disp = fmt.Sprintf("%s.func@%s:%d", path.Base(pass.PkgPath), path.Base(p.Filename), p.Line)
	ip.summarize(pass, key, disp, lit.Pos(), lit.Body)
	return key, disp
}
