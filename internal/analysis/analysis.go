// Package analysis holds the repo's custom static analyzers — the
// determinism and tracing invariants that keep the simulator reproducible,
// encoded as checks instead of review folklore.
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone, since the module
// deliberately has no dependencies. cmd/metalsvm-vet runs the analyzers as
// a vet tool: `go vet -vettool=$(which metalsvm-vet) ./...`, where cmd/go
// loads and type-checks each package and hands it over.
//
// Analyzers:
//
//   - simdet: simulation packages must stay deterministic — no math/rand,
//     no go statements, and no map iteration unless annotated with a
//     //metalsvm:deterministic directive (the sorted-collect idiom).
//     Host-side packages annotated //metalsvm:host-parallel above the
//     package clause may spawn goroutines and read the host clock; the
//     annotation is rejected inside core simulation packages.
//   - simtime: the host clock is banned from engine packages — no time.Now
//     or time.Since, and no host-timer scheduling (time.Sleep, time.After,
//     time.NewTimer, …); simulated time comes from the engine alone.
//   - tracenil: every observer hangs off the one event stream, so emission
//     must flow through its nil-guarded helpers — (*trace.Stream) and
//     (*trace.Buffer) methods keep their leading nil-receiver guard (an
//     uninstrumented run cannot nil-deref an observer), and no package
//     fabricates trace.Event values behind Emit's back.
//   - locksite: the static half of the sanitizer's lock-order analysis —
//     svm.Handle.Barrier must not be reached while a lock is held, and
//     constant lock ids must be acquired in a consistent order across each
//     package.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewInfo allocates the types.Info maps the analyzers read.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// Analyze runs every analyzer over the package and returns the findings.
func (p *Package) Analyze(analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     p.Fset,
			Files:    p.Files,
			Pkg:      p.Pkg,
			Info:     p.Info,
			Report: func(d Diagnostic) {
				d.Message = d.Message + " [" + a.Name + "]"
				out = append(out, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, p.Path, err)
		}
	}
	return out, nil
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's parsed and type-checked representation through
// an analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, parsed with comments.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Report delivers a finding.
	Report func(Diagnostic)
}

// Reportf formats and delivers a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns every analyzer in the suite.
func All() []*Analyzer { return []*Analyzer{SimDet, SimTime, TraceNil, LockSite} }

// Directive is the annotation that marks a map iteration as deliberately
// order-insensitive (e.g. collecting keys for sorting). It must appear as a
// comment on the range statement's line or the line above.
const Directive = "metalsvm:deterministic"

// HostParallelDirective is the package-level annotation declaring that a
// package runs on the HOST side of the simulator boundary and is allowed to
// spawn goroutines and read the host clock — the experiment runner that fans
// independent simulations across worker goroutines. It must appear in a
// comment above the package clause, and it is rejected outright in the core
// simulation packages, where host concurrency would break determinism.
const HostParallelDirective = "metalsvm:host-parallel"

// directiveLines collects the file lines carrying the Directive comment.
func directiveLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, Directive) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// isTestFile reports whether the file position is in a _test.go file. The
// invariants guard simulation code; test assertions may iterate maps freely.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
