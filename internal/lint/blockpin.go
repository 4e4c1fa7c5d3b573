package lint

import (
	"go/ast"
	"go/types"
)

// blockcachePkg is the import-path suffix of the block-cache package whose
// pins the analyzer tracks.
const blockcachePkg = "internal/blockcache"

// NewBlockPin returns the blockpin analyzer: every pin acquired with
// blockcache Cache.GetOrLoad must be released with Pin.Release (or a defer
// of it) on every path out of the acquiring function. The discipline is the
// same lexical one poolfree enforces — a pin that escapes (stored in a
// struct, passed along, captured, returned) transfers ownership and stops
// being tracked — plus the (Pin, error) refinement: on the `err != nil`
// branch of the acquisition's error check the pin is its zero value, so
// error returns need no release.
//
// A leaked pin is worse than a leaked pool buffer: it holds a refcount on
// the cache entry, so eviction skips the block forever and the
// capacity-bounded cache degrades into an unbounded one.
func NewBlockPin() *Analyzer {
	a := &Analyzer{
		Name: "blockpin",
		Doc:  "block-cache pins (blockcache Cache.GetOrLoad) must be released on all return paths",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Files {
			for _, scope := range functionScopes(f) {
				checkPinScope(pass, scope)
			}
		}
	}
	return a
}

// pinSpec adapts the shared release-flow interpreter to block-cache pins:
// release is a nullary Release() method call on the tracked value resolving
// into the blockcache package.
func pinSpec() poolSpec {
	return poolSpec{
		noun:    "cache pin",
		getDesc: "blockcache GetOrLoad",
		relDesc: "its Release method",
		isRelease: func(info *types.Info, call *ast.CallExpr, v types.Object) bool {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
				return false
			}
			id, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || info.Uses[id] != v {
				return false
			}
			fn := calleeFunc(info, call)
			return fn != nil && pathHasSuffix(funcPkgPath(fn), blockcachePkg)
		},
	}
}

// isPinAcquire reports whether call statically resolves to the block
// cache's GetOrLoad method.
func isPinAcquire(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && fn.Name() == "GetOrLoad" && pathHasSuffix(funcPkgPath(fn), blockcachePkg)
}

func checkPinScope(pass *Pass, body *ast.BlockStmt) {
	// Find acquisitions directly in this scope (not in nested FuncLits —
	// including GetOrLoad's own fill callback, which is a separate scope).
	var acqs []poolAcq
	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok || !isPinAcquire(pass.Info, call) {
				return
			}
			if len(n.Lhs) != 2 {
				return
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				pass.Reportf(call.Pos(), "pin returned by GetOrLoad is discarded: the cache entry stays pinned and can never be evicted")
				return
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj == nil {
				return
			}
			acq := poolAcq{spec: pinSpec(), v: obj, stmt: n}
			// Pair the error result so the flow can refine `err != nil`
			// branches to the zero-pin state.
			if eid, ok := n.Lhs[1].(*ast.Ident); ok && eid.Name != "_" {
				if eobj := pass.Info.Defs[eid]; eobj != nil {
					acq.errv = eobj
				} else {
					acq.errv = pass.Info.Uses[eid]
				}
			}
			acqs = append(acqs, acq)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok && isPinAcquire(pass.Info, call) {
				pass.Reportf(call.Pos(), "pin returned by GetOrLoad is discarded: the cache entry stays pinned and can never be evicted")
			}
		}
	})
	flowAcqs(pass, body, acqs)
}
