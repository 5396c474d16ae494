// Command metalsvm-vet runs the repo's custom static analyzers (simdet,
// simtime, tracenil, locksite — see internal/analysis) as a vet tool,
// speaking cmd/go's unitchecker protocol:
//
//	go install ./cmd/metalsvm-vet
//	go vet -vettool=$(which metalsvm-vet) ./...
//
// cmd/go loads the packages and runs the tool once per package; a finding
// makes the tool, and so go vet, exit non-zero. benchmark/ is a module of
// its own, so it takes a second run from inside that directory. Run any
// other way, the tool prints its usage and exits 2.
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
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		fmt.Printf("metalsvm-vet version v1.0.0\n")
	case len(args) == 1 && args[0] == "-flags":
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		os.Exit(unitcheck(args[0]))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which metalsvm-vet) [packages]")
		os.Exit(2)
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
	info := analysis.NewInfo()
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
