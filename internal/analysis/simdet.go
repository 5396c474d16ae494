package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// SimDet enforces the simulator's determinism contract: a run is a pure
// function of its configuration, so simulation code must not use host
// randomness or host scheduling (the host clock is simtime's beat). Map
// iteration order is the classic
// silent killer — Go randomizes it per run — so every `range` over a map is
// flagged unless annotated with //metalsvm:deterministic (the collect-keys-
// then-sort idiom). `go` statements are reserved for internal/sim, whose
// engine runs exactly one goroutine at a time by construction (so a sync or
// sync/atomic import there is flagged: nothing in the engine may need it) —
// and for host-side packages annotated //metalsvm:host-parallel above the
// package clause, which fan whole independent simulations across workers
// (the annotation also unlocks the host clock for wall-time measurement,
// and is itself an error inside core simulation packages).
var SimDet = &Analyzer{
	Name: "simdet",
	Doc: "forbid math/rand, go statements and unannotated map iteration " +
		"in simulation packages",
	Run: runSimDet,
}

// simDetExempt lists packages allowed to break the rules: internal/sim owns
// the goroutine handoff machinery, and this package plus its driver run on
// the host, not in the simulation.
var simDetExempt = map[string]bool{
	"metalsvm/internal/sim":      true,
	"metalsvm/internal/analysis": true,
	"metalsvm/cmd/metalsvm-vet":  true,
}

// simPkgPath is the engine package. Its goroutines hand control to each
// other through unbuffered channels, one running at a time, so its non-test
// files have no use for the host concurrency primitives: importing sync or
// sync/atomic there is a finding.
const simPkgPath = "metalsvm/internal/sim"

// hostParallelDenied lists the core simulation packages where the
// //metalsvm:host-parallel annotation itself is an error: code on the
// simulated side of the boundary must never spawn host goroutines, so the
// annotation cannot be used to smuggle concurrency into the model. The
// apps/ prefix (simulated workloads) is denied too.
var hostParallelDenied = map[string]bool{
	"metalsvm/internal/sim":       true,
	"metalsvm/internal/cpu":       true,
	"metalsvm/internal/cache":     true,
	"metalsvm/internal/pgtable":   true,
	"metalsvm/internal/phys":      true,
	"metalsvm/internal/mesh":      true,
	"metalsvm/internal/mailbox":   true,
	"metalsvm/internal/kernel":    true,
	"metalsvm/internal/gic":       true,
	"metalsvm/internal/scc":       true,
	"metalsvm/internal/rcce":      true,
	"metalsvm/internal/svm":       true,
	"metalsvm/internal/racecheck": true,
	"metalsvm/internal/core":      true,
	"metalsvm/internal/trace":     true,
}

func hostParallelDeniedPath(path string) bool {
	return hostParallelDenied[path] || strings.HasPrefix(path, "metalsvm/internal/apps/")
}

// hostParallelPos returns the position of a //metalsvm:host-parallel
// annotation above any file's package clause, or token.NoPos when the
// package is not annotated.
func hostParallelPos(files []*ast.File) token.Pos {
	for _, f := range files {
		for _, cg := range f.Comments {
			if cg.Pos() >= f.Package {
				continue
			}
			for _, c := range cg.List {
				if strings.Contains(c.Text, HostParallelDirective) {
					return c.Pos()
				}
			}
		}
	}
	return token.NoPos
}

func runSimDet(p *Pass) error {
	// The annotation check runs before the exemption return so that even
	// always-exempt packages cannot carry a meaningless (and confusing)
	// host-parallel marker if they are on the simulated side.
	hostParallel := false
	if pos := hostParallelPos(p.Files); pos != token.NoPos {
		if hostParallelDeniedPath(p.Pkg.Path()) {
			p.Reportf(pos, "//%s is not allowed in core simulation package %s: "+
				"host goroutines inside the model break determinism",
				HostParallelDirective, p.Pkg.Path())
		} else {
			hostParallel = true
		}
	}
	if p.Pkg.Path() == simPkgPath {
		reportSimSyncImports(p)
	}
	if simDetExempt[p.Pkg.Path()] {
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		directives := directiveLines(p.Fset, f)
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "simulation code must not import %s: "+
					"host randomness breaks run-to-run determinism", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if hostParallel {
					return true
				}
				p.Reportf(n.Pos(), "go statement outside internal/sim: host "+
					"scheduling is nondeterministic; use sim.Engine processes "+
					"(or annotate a host-side package with //%s)", HostParallelDirective)
			case *ast.RangeStmt:
				t := p.Info.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				line := p.Fset.Position(n.Pos()).Line
				if directives[line] || directives[line-1] {
					return true
				}
				p.Reportf(n.Pos(), "map iteration order is randomized; sort "+
					"the keys, or annotate with //%s if order cannot matter", Directive)
			}
			return true
		})
	}
	return nil
}

// reportSimSyncImports flags every sync or sync/atomic import in a non-test
// file of the engine package.
func reportSimSyncImports(p *Pass) {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "sync" || path == "sync/atomic" {
				p.Reportf(imp.Pos(), "import %q in internal/sim: the engine runs "+
					"one goroutine at a time and must not need host concurrency "+
					"primitives", path)
			}
		}
	}
}
