package cynthia_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
