package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestExportedIsUsed holds the tree to one rule: an exported function or
// method declared under internal/ goes when nothing names it but its own
// package's tests. A name counts when a non-test file anywhere in the
// repository (cmd/, examples/, internal/, metalsvm.go, benchmark/) or a test
// of another package (a test file in another directory, or an external
// _test package) uses it.
//
// The scan is parse-only. A package-level function is named by a bare
// identifier in its own package or by a selector on an import of it. A
// method is named by any identifier of its name, so two methods that share
// a name hide each other. String and Error, which fmt calls, and the
// methods of the types metalsvm.go re-exports by alias are exempt.
func TestExportedIsUsed(t *testing.T) {
	const root = "../.."
	module := modulePath(t, root)
	type decl struct {
		pos             token.Position
		dir, recv, name string
	}
	var decls []decl
	// used maps "dir.Func" for functions and ".Method" for methods to where
	// the name is used: "" for anywhere that counts, or the directory of
	// the package whose internal tests use it, which counts for every other
	// package.
	used := map[string]map[string]bool{}
	use := func(key, where string) {
		if used[key] == nil {
			used[key] = map[string]bool{}
		}
		used[key][where] = true
	}
	aliased := map[string]bool{} // "dir.Type" re-exported by metalsvm.go
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir, test := filepath.ToSlash(rel), strings.HasSuffix(p, "_test.go")
		imports := map[string]string{} // local name -> directory in the module
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			if sub, ok := strings.CutPrefix(ip, module+"/"); ok {
				name := path.Base(ip)
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = sub
			}
		}
		declNames := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declNames[d.Name] = true
				if !test && strings.HasPrefix(dir, "internal/") && d.Name.IsExported() {
					var recv string
					if d.Recv != nil {
						recv = receiverType(d.Recv.List[0].Type)
					}
					decls = append(decls, decl{fset.Position(d.Pos()), dir, recv, d.Name.Name})
				}
			case *ast.GenDecl:
				if dir != "." || test {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Assign.IsValid() {
						continue
					}
					if sel, ok := ts.Type.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
							aliased[imports[x.Name]+"."+sel.Sel.Name] = true
						}
					}
				}
			}
		}
		// An internal test names things for every package but its own; a
		// non-test file or an external _test package, for every package.
		where := ""
		if test && !strings.HasSuffix(f.Name.Name, "_test") {
			where = dir
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					use(imports[x.Name]+"."+n.Sel.Name, "")
				}
			case *ast.Ident:
				if !declNames[n] {
					use("."+n.Name, where)
					if !test {
						use(dir+"."+n.Name, "")
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	usedOutside := func(key, dir string) bool {
		for where := range used[key] {
			if where != dir {
				return true
			}
		}
		return false
	}
	for _, d := range decls {
		name := d.name
		switch {
		case d.recv == "" && usedOutside(d.dir+"."+d.name, d.dir):
			continue
		case d.recv != "":
			if usedOutside("."+d.name, d.dir) || d.name == "String" || d.name == "Error" ||
				aliased[d.dir+"."+strings.TrimPrefix(d.recv, "*")] {
				continue
			}
			name = "(" + d.recv + ")." + name
		}
		rel, _ := filepath.Rel(root, d.pos.Filename)
		t.Errorf("%s:%d: %s is exported, but nothing outside its own package's tests names it: delete or unexport it",
			filepath.ToSlash(rel), d.pos.Line, name)
	}
}

// receiverType is a method receiver's type as written, without type
// parameters: "*Cache", "Victim".
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return "*" + receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// modulePath reads the module path from root's go.mod.
func modulePath(t *testing.T, root string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatal("go.mod names no module")
	return ""
}
