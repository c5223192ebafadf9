package cynthia_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
//     caller too.
func TestEveryExportedFuncHasACaller(t *testing.T) {
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
		if fn.Exported() && !used[fn] {
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

// TestEveryJournalTypeHasAReader fails for each journal.Type constant
// without a row in readers, for each row naming a type the journal
// package does not declare, and for each reader that does not mention its
// type. Every event is framed into the WAL and replayed on every restart,
// so a type stays only while something reads the fact it carries; one
// without a reader is deleted. A reader is one of:
//   - a non-test file that keys on the type ("path.go"), or one
//     declaration in it ("path.go:name");
//   - a function in a test file that asserts the fact the event carries,
//     not merely that it was emitted ("path_test.go:TestName");
//   - a ROADMAP item that will read the type, with the field it needs
//     ("ROADMAP.md:7:pred_sec").
//
// The test checks that the file or declaration uses the constant, and
// that the ROADMAP item names both the type and the field.
func TestEveryJournalTypeHasAReader(t *testing.T) {
	type reader struct{ at, uses string }
	const trace, spans = "cmd/cynthiabench/trace.go", "internal/obs/journal/timeline.go:spanPairs"
	readers := map[string][]reader{
		"JobSubmitted": {
			{trace, "wall_ns starts the controller.queue stage"},
			{spans, "opens the job span of the Chrome timeline"},
		},
		"JobStatus": {
			{trace, "the first status=planning ends controller.queue and starts controller.plan"},
		},
		"JobFinished": {
			{trace, "wall_ns ends controller.finish and starts controller.teardown"},
			{spans, "closes the job span"},
		},
		"JobFailed": {
			{spans, "closes the job span of a failed job"},
			{"internal/simtest/journal_test.go:TestGoldenTimelineCausalChain", "a failed outcome's terminal event, after the last segment"},
		},
		"PlanSearchStart": {
			{"internal/plan/engine_test.go:TestSearchMatchesProvisionPlusCandidates", "types is the number of instance types the search covers"},
			{"internal/cluster/recovery_edge_test.go:TestExhaustedBudgetSkipsReplan", "one per search: a recovery with no budget left runs none"},
		},
		"PlanSearchDone": {
			{"internal/plan/engine_test.go:TestSearchMatchesProvisionPlusCandidates", "enumerated, pruned and feasible equal the search's Stats"},
		},
		"PlanChosen": {
			{trace, "wall_ns ends controller.plan and starts cloud.provision"},
			{"internal/cluster/elastic_test.go:TestSpotRefusalFallsBackOnDemand", "fallback=true marks the plan the on-demand fallback launched"},
			{"internal/simtest/journal_test.go:TestGoldenTimelineCausalChain", "enumerated and pruned record the Theorem 4.1 search accounting"},
			{"ROADMAP.md:7:pred_sec", "the predicted time that prediction error is measured against"},
		},
		"PlanRejected": {
			{"internal/plan/service/service_test.go:TestOverloadRejects", "reason=overloaded under the rejected quote's trace"},
		},
		"JobProvisioned": {
			{trace, "wall_ns ends cloud.provision and starts controller.launch"},
		},
		"LaunchRetry": {
			{"internal/cluster/recovery_test.go:TestTransientLaunchRetriesSucceed", "one per retried launch, with its attempt number"},
		},
		"CapacityFallback": {
			{"internal/cluster/elastic_test.go:TestSpotRefusalFallsBackOnDemand", "one per refusal: type names the instance type the spot market refused"},
			{"internal/cluster/elastic_test.go:TestElasticScaleSpotRefusalFallsBackOnDemand", "one per refusal, also when an elastic rebuild's overhead carries the launch past its bid"},
		},
		"SegmentStart": {
			{trace, "wall_ns and workers start ddnnsim.segment and weight its iteration rate"},
			{spans, "opens a segment span"},
		},
		"SegmentEnd": {
			{trace, "wall_ns and iterations end ddnnsim.segment and give its iteration rate"},
			{spans, "closes a segment span"},
			{"internal/simtest/crash_test.go:killPoints", "its time is where a segment-boundary master kill lands"},
			{"ROADMAP.md:7:training_sec", "the simulated time that prediction error is measured on"},
		},
		"RecoveryStart": {
			{spans, "opens a recovery span"},
			{"internal/cluster/recovery_edge_test.go:TestSimultaneousPreemptionsRecoverInOneCycle", "instances names every instance one revocation killed"},
			{"internal/simtest/crash_test.go:killPoints", "its time places the mid-recovery master kills"},
		},
		"RecoveryReplan": {
			{"internal/cluster/recovery_edge_test.go:TestTightBudgetReplans", "type, workers, ps and budget_sec are the plan a recovery re-planned onto"},
		},
		"RecoveryDone": {
			{spans, "closes a recovery span"},
			{"internal/cluster/recovery_edge_test.go:TestTightBudgetReplans", "replanned=true records a cycle that rebuilt on a new plan"},
		},
		"ElasticReplan": {
			{"internal/cluster/elastic_test.go:TestElasticScalesMidRunOnPriceDrop", "the decision that precedes each elastic.scale"},
		},
		"ElasticScale": {
			{"internal/cluster/elastic_test.go:TestElasticScalesMidRunOnPriceDrop", "one per executed rebuild: their count is Job.ElasticScales"},
		},
		"InstanceLaunched": {
			{trace, "counted into cloud.instances_per_job"},
			{"internal/cloud/faults_test.go:TestWatchDeliversLifecycleEvents", "id opens the instance's lifecycle"},
		},
		"InstancePreempted": {
			{"internal/cloud/faults_test.go:TestWatchDeliversLifecycleEvents", "its time is the scheduled revocation instant"},
			{"internal/simtest/journal_test.go:TestGoldenTimelineCausalChain", "precedes the recovery it causes"},
		},
		"InstanceTerminated": {
			{"internal/cloud/cloud_test.go:TestBillingPerSecond", "cost_usd is the instance's whole bill"},
		},
	}

	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	jp := l.pkgs["cynthia/internal/obs/journal"]
	typ := jp.Scope().Lookup("Type").Type()
	var names []string            // declared constants, sorted
	values := map[string]string{} // constant name -> its string value
	for _, name := range jp.Scope().Names() {
		if c, ok := jp.Scope().Lookup(name).(*types.Const); ok && types.Identical(c.Type(), typ) {
			names = append(names, name)
			values[name] = constant.StringVal(c.Val())
		}
	}
	for name := range readers {
		if _, ok := values[name]; !ok {
			t.Errorf("readers names journal.%s, which the journal package does not declare", name)
		}
	}
	for _, name := range names {
		if len(readers[name]) == 0 {
			t.Errorf("journal.%s (%q) has no reader: name one, or delete the type and its emitter", name, values[name])
		}
		for _, r := range readers[name] {
			if r.uses == "" {
				t.Errorf("journal.%s: reader %s does not say what it reads", name, r.at)
			}
			if err := mentions(r.at, name, values[name]); err != nil {
				t.Errorf("journal.%s: reader %s: %v", name, r.at, err)
			}
		}
	}
}

// mentions reports whether the reader at names the journal type name,
// whose string value is value. See TestEveryJournalTypeHasAReader for the
// three forms at takes. In a Go file a mention is the selector
// journal.<name>, or the bare name inside package journal itself.
func mentions(at, name, value string) error {
	if rest, ok := strings.CutPrefix(at, "ROADMAP.md:"); ok {
		item, field, ok := strings.Cut(rest, ":")
		if !ok || field == "" {
			return errors.New("a ROADMAP reader is ROADMAP.md:<item>:<field>")
		}
		text, err := roadmapItem(item)
		if err != nil {
			return err
		}
		if !strings.Contains(text, "`"+value+"`") || !strings.Contains(text, "`"+field+"`") {
			return fmt.Errorf("item %s does not name `%s` and `%s`", item, value, field)
		}
		return nil
	}
	file, decl, _ := strings.Cut(at, ":")
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		return err
	}
	var scope ast.Node = f
	if decl != "" {
		scope = nil
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == decl {
					scope = d
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && slices.ContainsFunc(vs.Names, func(id *ast.Ident) bool { return id.Name == decl }) {
						scope = d
					}
				}
			}
		}
		if scope == nil {
			return fmt.Errorf("no declaration %q", decl)
		}
	}
	bare := f.Name.Name == "journal"
	found := false
	ast.Inspect(scope, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			x, ok := n.X.(*ast.Ident)
			found = found || ok && x.Name == "journal" && n.Sel.Name == name
		case *ast.Ident:
			found = found || bare && n.Name == name
		}
		return !found
	})
	if !found {
		return fmt.Errorf("does not use journal.%s", name)
	}
	return nil
}

// roadmapItem returns the text of the numbered open item in ROADMAP.md:
// from the line that starts "<n>. " to the next numbered item or heading.
func roadmapItem(n string) (string, error) {
	data, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		return "", err
	}
	var item []string
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		num, _, numbered := strings.Cut(line, ". ")
		_, notNum := strconv.Atoi(num)
		if numbered && notNum == nil || strings.HasPrefix(line, "#") {
			if in {
				break
			}
			in = num == n
		}
		if in {
			item = append(item, line)
		}
	}
	if len(item) == 0 {
		return "", fmt.Errorf("ROADMAP.md has no item %s", n)
	}
	return strings.Join(item, "\n"), nil
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
