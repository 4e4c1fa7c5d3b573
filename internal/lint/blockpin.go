package lint

import (
	"go/ast"
	"go/types"
)

// corePkg is the import-path suffix of the package whose mapping pins the
// analyzer tracks.
const corePkg = "internal/core"

// mapPinCalls are the methods that pin a tiered segment's mapping and
// return its release, by receiver type in the core package: segTier's
// acquire and extent, and Segment's vectorData and vectorRows. Each
// returns (view, release func(), error).
var mapPinCalls = map[string][]string{
	"segTier": {"acquire", "extent"},
	"Segment": {"vectorData", "vectorRows"},
}

// NewBlockPin returns the blockpin analyzer: the release returned with a
// view of a tiered segment's mapping must be called (or deferred) on every
// path out of the acquiring function. The discipline is the same lexical
// one poolfree enforces — a release that escapes (stored in a struct,
// passed along, captured, returned) transfers ownership and stops being
// tracked — plus the (view, release, error) refinement: on the
// `err != nil` branch of the acquisition's error check nothing is pinned,
// so error returns need no release.
//
// A leaked release pins the mapping forever: the segment can never
// demote, the mapped-bytes budget stops bounding residency, and a
// destroyed segment's mapping never closes. Scans read the mapping in
// place, so the pin is also what keeps a view's bytes mapped — a view
// must not be read after its release.
func NewBlockPin() *Analyzer {
	a := &Analyzer{
		Name: "blockpin",
		Doc:  "the release of a tiered segment's mapping pin (segTier.acquire/extent, Segment.vectorData/vectorRows) must be called on all return paths",
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

// pinSpec adapts the shared release-flow interpreter to mapping pins:
// release is a nullary call of the tracked release value itself.
func pinSpec(getDesc string) poolSpec {
	return poolSpec{
		noun:    "mapping pin",
		getDesc: getDesc,
		relDesc: "the returned release",
		isRelease: func(info *types.Info, call *ast.CallExpr, v types.Object) bool {
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			return ok && len(call.Args) == 0 && info.Uses[id] == v
		},
	}
}

// pinAcquire reports whether call statically resolves to one of the
// mapPinCalls methods, and names it for messages.
func pinAcquire(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || !pathHasSuffix(funcPkgPath(fn), corePkg) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 3 {
		return "", false
	}
	_, recv, ok := namedTypePath(sig.Recv().Type())
	if !ok {
		return "", false
	}
	for _, m := range mapPinCalls[recv] {
		if fn.Name() == m {
			return recv + "." + m, true
		}
	}
	return "", false
}

func checkPinScope(pass *Pass, body *ast.BlockStmt) {
	// Find acquisitions directly in this scope (not in nested FuncLits).
	var acqs []poolAcq
	inspectScope(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || len(n.Lhs) != 3 {
				return
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			name, ok := pinAcquire(pass.Info, call)
			if !ok {
				return
			}
			id, ok := n.Lhs[1].(*ast.Ident)
			if !ok || id.Name == "_" {
				pass.Reportf(call.Pos(), "release returned by %s is discarded: the mapping stays pinned and can never demote or unmap", name)
				return
			}
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj == nil {
				return
			}
			acq := poolAcq{spec: pinSpec(name), v: obj, stmt: n}
			// Pair the error result so the flow can refine `err != nil`
			// branches to the nothing-pinned state.
			if eid, ok := n.Lhs[2].(*ast.Ident); ok && eid.Name != "_" {
				if eobj := pass.Info.Defs[eid]; eobj != nil {
					acq.errv = eobj
				} else {
					acq.errv = pass.Info.Uses[eid]
				}
			}
			acqs = append(acqs, acq)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, ok := pinAcquire(pass.Info, call); ok {
					pass.Reportf(call.Pos(), "release returned by %s is discarded: the mapping stays pinned and can never demote or unmap", name)
				}
			}
		}
	})
	flowAcqs(pass, body, acqs)
}
