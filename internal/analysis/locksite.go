package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"metalsvm/internal/cycles"
)

// LockSite is the static complement of the dynamic lock-order graph in
// internal/sancheck: it walks every function's body in source order, tracks
// which constant svm.Handle lock ids are held at each point, records the
// acquisition-order edges, and reports (a) a kernel barrier reached while a
// lock is held — every member must arrive, so a contender for the held lock
// never will — and (b) cycles in the per-package acquisition-order graph,
// which the dynamic checker would only see on a run that actually exercises
// both orders. Lock calls with non-constant ids (a task farm hashing its
// queue index, say) cannot be ordered statically and are skipped, exactly
// the cases the dynamic graph still covers at run time.
var LockSite = &Analyzer{
	Name: "locksite",
	Doc: "flag svm.Handle.Barrier while holding a lock and statically " +
		"inconsistent lock acquisition orders",
	Run: runLockSite,
}

// svmPkgPath is the package whose Handle methods the analyzer models.
const svmPkgPath = "metalsvm/internal/svm"

func runLockSite(p *Pass) error {
	edges := map[cycles.Edge[int64]]token.Pos{}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			walkLockSites(p, fn.Body, edges)
		}
	}
	reportLockCycles(p, edges)
	return nil
}

// walkLockSites tracks held constant lock ids through one function body in
// source order — a straight-line approximation that visits both branches of
// every conditional, which over-approximates paths and so errs toward
// reporting.
func walkLockSites(p *Pass, body *ast.BlockStmt, edges map[cycles.Edge[int64]]token.Pos) {
	var held []int64
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := svmHandleMethod(p.Info, call)
		switch name {
		case "Lock":
			id, ok := constIntArg(p.Info, call, 0)
			if !ok {
				return true
			}
			for _, h := range held {
				if h == id {
					p.Reportf(call.Pos(), "svm lock %d acquired while already "+
						"held in this function: self-deadlock", id)
					return true
				}
				e := cycles.Edge[int64]{From: h, To: id}
				if _, seen := edges[e]; !seen {
					edges[e] = call.Pos()
				}
			}
			held = append(held, id)
		case "Unlock":
			id, ok := constIntArg(p.Info, call, 0)
			if !ok {
				return true
			}
			for i := len(held) - 1; i >= 0; i-- {
				if held[i] == id {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case "Barrier":
			if len(held) > 0 {
				p.Reportf(call.Pos(), "svm barrier reached while holding lock %d: "+
					"a contender for it can never arrive", held[len(held)-1])
			}
		}
		return true
	})
}

// svmHandleMethod returns the method name if the call is
// (*svm.Handle).Lock, Unlock or Barrier ("" otherwise).
func svmHandleMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != svmPkgPath {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Handle" {
		return ""
	}
	switch fn.Name() {
	case "Lock", "Unlock", "Barrier":
		return fn.Name()
	}
	return ""
}

// constIntArg returns argument i's value when it is an integer constant.
func constIntArg(info *types.Info, call *ast.CallExpr, i int) (int64, bool) {
	if i >= len(call.Args) {
		return 0, false
	}
	tv, ok := info.Types[call.Args[i]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// reportLockCycles reports the package's acquisition-order cycles, each
// once per distinct node set and in deterministic order, at the site of
// its closing edge.
func reportLockCycles(p *Pass, edges map[cycles.Edge[int64]]token.Pos) {
	cycles.Find(edges, cmp.Compare[int64], func(cycle []int64) {
		parts := make([]string, len(cycle)+1)
		for i, c := range append(cycle, cycle[0]) {
			parts[i] = fmt.Sprintf("%d", c)
		}
		p.Reportf(edges[cycles.Edge[int64]{From: cycle[len(cycle)-1], To: cycle[0]}],
			"svm lock acquisition order cycle: %s (potential deadlock; "+
				"matches the dynamic lock-order checker's edge direction)",
			strings.Join(parts, " -> "))
	})
}
