package cynthia_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestEveryInternalPackageHasACaller fails for each package under
// internal/ that no file in another directory imports: a package only its
// own tests use is dead code. It reads the imports of every .go file
// under cmd/, internal/ and examples/, skipping testdata/ and nested
// modules (cmd/cynthiabench has its own go.mod and is not part of this
// module's build). Test files in other directories count as callers
// because internal/simtest is a harness that only other packages' tests
// import.
func TestEveryInternalPackageHasACaller(t *testing.T) {
	const module = "cynthia/"
	fset := token.NewFileSet()
	packages := map[string]bool{} // import path -> imported from another directory
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
				return nil
			}
			name := d.Name()
			if !strings.HasSuffix(name, ".go") {
				return nil
			}
			dir := module + filepath.ToSlash(filepath.Dir(p))
			isTest := strings.HasSuffix(name, "_test.go")
			if _, seen := packages[dir]; !seen && !isTest && strings.HasPrefix(dir, module+"internal/") {
				packages[dir] = false
			}
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					return err
				}
				if imp != dir && strings.HasPrefix(imp, module+"internal/") {
					packages[imp] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(packages) == 0 {
		t.Fatal("found no packages under internal/")
	}
	var orphans []string
	for pkg, imported := range packages {
		if !imported {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	for _, pkg := range orphans {
		t.Errorf("%s: no file outside the package imports it", pkg)
	}
}

// TestEveryExportedFuncHasACaller fails for each exported function or
// method under internal/ that no non-test file uses outside its own
// declaration: a name only tests call is test scaffolding in the
// production API, and belongs in an export_test.go or nowhere. It
// type-checks the module's non-test files with go/types, so a use is an
// object, not a matching name. The allowlist:
//   - a method that satisfies an interface some loaded package declares
//     (fmt.Stringer, error, plan.Provisioner, ...), since it is called
//     through the interface;
//   - internal/simtest, a test harness by design;
//   - what the non-test files of cmd/cynthiabench use: it is a nested
//     module, but it builds from this tree, so it is type-checked as a
//     caller too;
//   - the entries of keep below.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	keep := map[string]bool{
		// The only source of cloud.ErrCapacity. Deleting it deletes
		// ProviderState.Limits with it, which re-pins the snapshot format
		// and so waits for the next sanctioned re-pin.
		"cynthia/internal/cloud.(*Provider).SetCapacityLimit": true,
	}
	const module = "cynthia"
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	// Interfaces: every named one in the loaded packages and everything
	// they import, plus error.
	byMethod := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var addIfaces func(*types.Package)
	addIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := range it.NumMethods() {
						byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	for _, p := range l.pkgs {
		addIfaces(p)
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	byMethod["Error"] = append(byMethod["Error"], errIface)
	satisfies := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range byMethod[fn.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	used := map[*types.Func]bool{}
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if span, ok := l.body[fn]; ok && id.Pos() >= span[0] && id.Pos() < span[1] {
			continue // a recursive call is not a caller
		}
		used[fn] = true
	}
	var missing []string
	check := func(fn *types.Func, name string) {
		if fn.Exported() && !used[fn] && !keep[name] {
			missing = append(missing, name)
		}
	}
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, module+"/internal/") || path == module+"/internal/simtest" {
			continue
		}
		for _, name := range p.Scope().Names() {
			switch obj := p.Scope().Lookup(name).(type) {
			case *types.Func:
				check(obj, path+"."+name)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := range named.NumMethods() {
					m := named.Method(i)
					recv := name
					if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						recv = "(*" + name + ")"
					}
					if m.Exported() && !satisfies(m) {
						check(m, path+"."+recv+"."+m.Name())
					}
				}
			}
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("%s: no non-test file uses it", name)
	}
}

// TestEveryFieldIsRead fails for each unexported struct field under
// internal/ that no non-test file reads: a field production only writes
// is dead state, and one only tests read is test scaffolding carried by
// every value. It walks the same type-checked non-test files as
// TestEveryExportedFuncHasACaller. A use of the field is a read unless it
// is written there: the whole left-hand side of an assignment (a compound
// one included, since its read feeds only the field itself), the operand
// of ++ or --, or the key of a composite literal. Writing through a field,
// as in x.f.g = v or x.f[i] = v, reads f. internal/simtest, a test harness
// by design, is exempt, and so are the entries of keep: fields read only
// as part of a whole struct, through == or a map key, which no selector
// shows.
func TestEveryFieldIsRead(t *testing.T) {
	keep := map[string]string{
		"cynthia/internal/cluster/replay.frozenKey.id": "read through the frozen set's map key",
	}
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	written := map[*ast.Ident]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					lhs(e)
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					written[id] = true
				}
			}
			return true
		})
	}
	read := map[*types.Var]bool{}
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			read[v.Origin()] = true
		}
	}
	var unread []string
	for id, obj := range l.info.Defs {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || v.Exported() || v.Anonymous() || v.Pkg() == nil || read[v] {
			continue
		}
		path := v.Pkg().Path()
		if !strings.HasPrefix(path, "cynthia/internal/") || path == "cynthia/internal/simtest" {
			continue
		}
		name := path + "." + structName(l, id) + "." + v.Name()
		if keep[name] == "" {
			unread = append(unread, name)
		}
	}
	sort.Strings(unread)
	for _, name := range unread {
		t.Errorf("%s: no non-test file reads it", name)
	}
}

// structName names the type whose struct declares the field defined at
// id: the innermost type spec enclosing it, or "struct" for a field of
// an unnamed struct type outside any type spec.
func structName(l *moduleLoader, id *ast.Ident) string {
	name := "struct"
	for _, f := range l.files {
		if id.Pos() < f.Pos() || id.Pos() >= f.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || id.Pos() < n.Pos() || id.Pos() >= n.End() {
				return false
			}
			if ts, ok := n.(*ast.TypeSpec); ok {
				name = ts.Name.Name
			}
			return true
		})
	}
	return name
}

// loadModule type-checks the module's non-test files once, for every test
// that reads them: every package under cmd/, internal/ and examples/
// (skipping testdata/ and nested modules), plus cmd/cynthiabench, a nested
// module that builds from this tree.
var loadModule = sync.OnceValues(func() (*moduleLoader, error) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		body: map[*types.Func][2]token.Pos{},
	}
	var dirs []string
	for _, root := range []string{"cmd", "internal", "examples"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			dirs = append(dirs, filepath.ToSlash(p))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dirs = append(dirs, "cmd/cynthiabench") // a nested module built from this tree
	for _, dir := range dirs {
		if _, err := l.load("cynthia/"+dir, dir); err != nil {
			return nil, err
		}
	}
	return l, nil
})

// moduleLoader type-checks the module's packages from their non-test
// files, recording every identifier definition and use in one
// types.Info, and hands every other import to the standard library's
// source importer.
type moduleLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
	body  map[*types.Func][2]token.Pos // declared function -> its body's extent
	files []*ast.File                  // every file of the module's packages
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if dir, ok := strings.CutPrefix(path, "cynthia/"); ok {
		return l.load(path, dir)
	}
	return l.std.Import(path)
}

func (l *moduleLoader) load(path, dir string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	for _, f := range files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				l.body[l.info.Defs[fd.Name].(*types.Func)] = [2]token.Pos{fd.Body.Pos(), fd.Body.End()}
			}
		}
	}
	return p, nil
}
