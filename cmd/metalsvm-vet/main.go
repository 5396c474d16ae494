// Command metalsvm-vet runs the repo's custom static analyzers (simdet,
// simtime, tracenil, locksite — see internal/analysis).
//
// Standalone, over the whole module:
//
//	metalsvm-vet ./...
//
// Or as a vet tool, speaking cmd/go's unitchecker protocol:
//
//	go vet -vettool=$(which metalsvm-vet) ./...
//
// Exit status: 0 clean, 1 findings or errors (2 for findings in vettool
// mode, matching vet convention).
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"

	"metalsvm/internal/analysis"
)

func main() {
	args := os.Args[1:]
	// cmd/go probes the tool before using it: -V=full asks for a version
	// stamp (cache key), -flags for the tool's flag schema.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Printf("metalsvm-vet version v1.0.0\n")
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}
	os.Exit(standalone(args))
}

// standalone loads the whole module from source and analyzes every package.
// Any argument form is accepted ("./..." or nothing); the tool always
// analyzes the full tree rooted at the working directory's module.
func standalone(args []string) int {
	// The scan is always module-wide, but a mistyped path must not look
	// like a clean pass.
	for _, a := range args {
		p := strings.TrimSuffix(strings.TrimSuffix(a, "..."), "/")
		if p == "" || p == "." || p == "./" {
			continue
		}
		if _, err := os.Stat(p); err != nil {
			fmt.Fprintf(os.Stderr, "metalsvm-vet: %s: no such file or directory\n", a)
			return 1
		}
	}
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	l, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := l.LoadTree()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := pkg.Analyze(analysis.All())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, d := range diags {
			fmt.Printf("%s: %s\n", l.Fset.Position(d.Pos), d.Message)
			found++
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "metalsvm-vet: %d finding(s)\n", found)
		return 1
	}
	return 0
}

// moduleRoot walks up from the working directory to the containing go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dir[:strings.LastIndex(dir, "/")+1]
		if parent == dir || parent == "" {
			return "", fmt.Errorf("metalsvm-vet: no go.mod above the working directory")
		}
		dir = strings.TrimSuffix(parent, "/")
		if dir == "" {
			dir = "/"
		}
	}
}

// vetConfig is the JSON payload cmd/go hands a vet tool per package.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package as described by a .cfg file.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "metalsvm-vet: %s: %v\n", cfgPath, err)
		return 1
	}
	// The tool must always produce its output file — cmd/go records it in
	// the build cache. We export no cross-package facts, so it is empty.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0 // dependency visited only for facts; we have none
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		files = append(files, f)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "source"
	}
	tcfg := types.Config{
		Importer: importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
			if mapped, ok := cfg.ImportMap[path]; ok {
				path = mapped
			}
			file, ok := cfg.PackageFile[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(file)
		}),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkg := &analysis.Package{Path: cfg.ImportPath, Fset: fset, Files: files, Pkg: tpkg, Info: info}
	diags, err := pkg.Analyze(analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
