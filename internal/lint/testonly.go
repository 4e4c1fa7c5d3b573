package lint

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
)

// NewTestOnly returns the testonly analyzer: an exported function, method
// or type declared in a non-test file under internal/ must be referenced
// from some non-test file. Code that only tests call is either dead (delete
// it with its tests), a test helper (move it into the package's _test.go
// files) or a hook other packages' tests need (allow it with a reason).
//
// References count from every loaded package — the analyzer judges the
// whole module, so run it over ./... — and from every nested module whose
// go.mod replaces this one with its directory (the shape of a benchmark
// kept in its own module); those are loaded in Finish, and their uses are
// matched to this module's declarations by package path, receiver and
// name, since the two modules type-check separate copies of each package.
// A reference from inside the declaration itself (recursion, a type named
// in its own methods) does not count. A method is also live when it is
// reached through an interface: its receiver implements, by method names
// and signatures, an interface some non-test code names — an inline
// assertion's, a parameter's, a field's — or fmt's Stringer or error.
func NewTestOnly() *Analyzer {
	t := &testOnly{used: map[string]bool{}, ifaces: map[string][]*types.Interface{}, seen: map[*types.Interface]bool{}}
	return &Analyzer{
		Name:   "testonly",
		Doc:    "exported code under internal/ is referenced outside _test.go files",
		Run:    t.run,
		Finish: t.finish,
	}
}

type testOnly struct {
	root, module string // the module under analysis: its directory and path
	decls        []testOnlyDecl
	used         map[string]bool               // keys referenced from non-test code
	ifaces       map[string][]*types.Interface // method name -> interfaces naming it
	seen         map[*types.Interface]bool
}

// testOnlyDecl is one exported declaration under internal/.
type testOnlyDecl struct {
	key    string
	pos    token.Position
	what   string      // "func vec.L2SquaredAt", "method ivf.IVF.ScanBucket", ...
	method *types.Func // set for methods, which an interface may reach
}

func (t *testOnly) run(pass *Pass) {
	if t.root == "" && len(pass.Files) > 0 {
		t.root = moduleRoot(filepath.Dir(pass.Fset.File(pass.Files[0].Pos()).Name()))
		if m, err := readGoMod(filepath.Join(t.root, "go.mod")); err == nil {
			t.module = m.Module.Path
		}
	}
	t.collectUses(pass.Files, pass.Info)
	if !hasInternalElem(pass.PkgPath) {
		return
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, ok := pass.Info.Defs[d.Name].(*types.Func)
				if !ok || !d.Name.IsExported() {
					continue
				}
				decl := testOnlyDecl{key: objKey(fn), pos: pass.Fset.Position(d.Name.Pos()), what: "func " + pass.Pkg.Name() + "." + fn.Name()}
				if named := recvNamed(fn); named != nil {
					decl.method = fn
					decl.what = "method " + pass.Pkg.Name() + "." + named.Obj().Name() + "." + fn.Name()
				}
				t.decls = append(t.decls, decl)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					obj := pass.Info.Defs[ts.Name]
					t.decls = append(t.decls, testOnlyDecl{key: objKey(obj), pos: pass.Fset.Position(ts.Name.Pos()), what: "type " + pass.Pkg.Name() + "." + obj.Name()})
				}
			}
		}
	}
}

// collectUses records every object the files refer to, outside the
// referring declaration's own keys, and every interface they mention.
func (t *testOnly) collectUses(files []*ast.File, info *types.Info) {
	for _, tv := range info.Types {
		t.addIfaces(tv.Type)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			own := ownKeys(d, info)
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				if obj == nil {
					return true
				}
				t.addIfaces(obj.Type())
				if k := objKey(obj); k != "" && !own[k] {
					t.used[k] = true
					if fn, ok := obj.(*types.Func); ok {
						if named := recvNamed(fn.Origin()); named != nil {
							t.used[objKey(named.Obj())] = true
						}
					}
				}
				return true
			})
		}
	}
}

// addIfaces indexes the interfaces typ is or its signature takes and
// returns, by method name.
func (t *testOnly) addIfaces(typ types.Type) {
	switch u := typ.Underlying().(type) {
	case *types.Interface:
		if t.seen[u] || u.NumMethods() == 0 {
			return
		}
		t.seen[u] = true
		for i := 0; i < u.NumMethods(); i++ {
			name := u.Method(i).Name()
			t.ifaces[name] = append(t.ifaces[name], u)
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				t.addIfaces(tup.At(i).Type())
			}
		}
	}
}

func (t *testOnly) finish(report reportFunc) {
	for _, dir := range t.replacingModules() {
		prog, err := Load(dir, []string{"./..."})
		if err != nil {
			report(token.Position{Filename: filepath.Join(dir, "go.mod"), Line: 1, Column: 1},
				"cannot load this module, which replaces %s, to count its references: %v", t.module, err)
			continue
		}
		for _, pkg := range prog.Packages {
			t.collectUses(pkg.Syntax, pkg.TypesInfo)
		}
	}
	for _, d := range t.decls {
		if t.used[d.key] || d.method != nil && t.reachedByInterface(d.method) {
			continue
		}
		report(d.pos, "%s has no reference outside _test.go files: delete it, move it into a test file, or allow it with a reason", d.what)
	}
}

// reachedByInterface reports whether m's receiver implements an interface
// that names m: fmt's Stringer or error, or one the code mentions.
func (t *testOnly) reachedByInterface(m *types.Func) bool {
	if (m.Name() == "String" || m.Name() == "Error") && sigString(m) == "() string" {
		return true
	}
	ms := types.NewMethodSet(types.NewPointer(recvNamed(m)))
	for _, iface := range t.ifaces[m.Name()] {
		if implementsBySignature(ms, iface) {
			return true
		}
	}
	return false
}

// implementsBySignature is types.Implements across package copies: a type
// checked from source and an interface read from export data name the same
// types through different objects, so methods match by name and printed
// signature.
func implementsBySignature(ms *types.MethodSet, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		found := false
		for j := 0; j < ms.Len() && !found; j++ {
			obj := ms.At(j).Obj()
			found = obj.Name() == im.Name() && (im.Exported() || obj.Pkg().Path() == im.Pkg().Path()) &&
				sigString(obj.(*types.Func)) == sigString(im)
		}
		if !found {
			return false
		}
	}
	return true
}

// sigString prints fn's parameter and result types, without names, with
// packages by path.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b bytes.Buffer
	for i, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString([]string{"(", ") "}[i])
		for j := 0; j < tup.Len(); j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			if i == 0 && sig.Variadic() && j == tup.Len()-1 {
				b.WriteString("...")
			}
			types.WriteType(&b, tup.At(j).Type(), func(p *types.Package) string { return p.Path() })
		}
	}
	return b.String()
}

// objKey names a package-level function, method or type the same way
// whether it was type-checked from source or read from export data; other
// objects key as "".
func objKey(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		fn := obj.Origin()
		if sig := fn.Type().(*types.Signature); sig.Recv() != nil && recvNamed(fn) == nil {
			return "" // an interface method
		}
		return fn.FullName()
	case *types.TypeName:
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

// recvNamed returns the named type a concrete method is declared on, or
// nil for functions and interface methods.
func recvNamed(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := types.Unalias(t).(*types.Named); ok && !types.IsInterface(named) {
		return named.Origin()
	}
	return nil
}

// ownKeys returns the keys a declaration's own references do not keep
// alive: a function's own, a method's and its receiver type's, a type's.
func ownKeys(d ast.Decl, info *types.Info) map[string]bool {
	own := map[string]bool{}
	switch d := d.(type) {
	case *ast.FuncDecl:
		if fn, ok := info.Defs[d.Name].(*types.Func); ok {
			own[objKey(fn)] = true
			if named := recvNamed(fn); named != nil {
				own[objKey(named.Obj())] = true
			}
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			if ts, ok := s.(*ast.TypeSpec); ok {
				own[objKey(info.Defs[ts.Name])] = true
			}
		}
	}
	return own
}

func hasInternalElem(pkgPath string) bool {
	return strings.HasPrefix(pkgPath, "internal/") || strings.Contains(pkgPath, "/internal/")
}

// moduleRoot walks up from dir to the directory holding go.mod.
func moduleRoot(dir string) string {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if filepath.Dir(d) == d {
			return ""
		}
	}
}

// goMod is what `go mod edit -json` reports of a go.mod file.
type goMod struct {
	Module  struct{ Path string }
	Replace []struct{ Old, New struct{ Path string } }
}

func readGoMod(file string) (m goMod, err error) {
	out, err := osexec.Command("go", "mod", "edit", "-json", file).Output()
	if err == nil {
		err = json.Unmarshal(out, &m)
	}
	return m, err
}

// replacingModules returns the directories of the modules nested under
// the module root whose go.mod replaces the module with that root. Like
// the go tool, the walk skips testdata, vendor and directories whose
// names begin with "." or "_".
func (t *testOnly) replacingModules() []string {
	if t.root == "" {
		return nil
	}
	var dirs []string
	filepath.WalkDir(t.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != t.root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.Dir(path)
		if d.Name() != "go.mod" || dir == t.root {
			return nil
		}
		m, err := readGoMod(path)
		if err != nil {
			return nil
		}
		for _, r := range m.Replace {
			if r.Old.Path == t.module && filepath.Join(dir, r.New.Path) == t.root {
				dirs = append(dirs, dir)
				break
			}
		}
		return nil
	})
	return dirs
}
