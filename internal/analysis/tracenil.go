package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TraceNil guards the instrumentation discipline: every layer emits through
// a possibly-nil *trace.Stream and every observer — the ring *trace.Buffer,
// the checkers — hangs off it, so an uninstrumented run costs one branch per
// site, allocates nothing and cannot nil-deref an observer. That only holds
// if (a) every exported Stream and Buffer method keeps its leading
// nil-receiver guard, and (b) nobody fabricates trace.Event values outside
// the trace package — events exist only because Emit created them, so a nil
// stream provably delivers nothing.
var TraceNil = &Analyzer{
	Name: "tracenil",
	Doc: "trace emission must flow through the nil-guarded (*trace.Stream) " +
		"and (*trace.Buffer) helpers",
	Run: runTraceNil,
}

const tracePkgPath = "metalsvm/internal/trace"

func runTraceNil(p *Pass) error {
	if p.Pkg.Path() == tracePkgPath {
		checkReceiverGuards(p)
		return nil
	}
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(lit)
			if t == nil {
				return true
			}
			if named, ok := t.(*types.Named); ok &&
				named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == tracePkgPath &&
				named.Obj().Name() == "Event" {
				p.Reportf(lit.Pos(), "trace.Event constructed outside the "+
					"trace package; emit through the nil-guarded Stream.Emit")
			}
			return true
		})
	}
	return nil
}

// checkReceiverGuards requires every exported pointer-receiver method of
// trace.Stream and trace.Buffer to begin with an `if <recv> == nil` guard
// (alone or as the first operand of an || chain), keeping the whole emission
// surface safe on a nil stream or ring.
func checkReceiverGuards(p *Pass) {
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			recv := fd.Recv.List[0]
			star, ok := recv.Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			ident, ok := star.X.(*ast.Ident)
			if !ok || (ident.Name != "Stream" && ident.Name != "Buffer") {
				continue
			}
			if len(recv.Names) == 0 || !startsWithNilGuard(fd.Body, recv.Names[0].Name) {
				p.Reportf(fd.Pos(), "(*%s).%s lacks the leading nil-receiver "+
					"guard; callers hold possibly-nil values", ident.Name, fd.Name.Name)
			}
		}
	}
}

// startsWithNilGuard reports whether the body's first statement is
// `if <recv> == nil { ... }` or `if <recv> == nil || ... { ... }`.
func startsWithNilGuard(body *ast.BlockStmt, recvName string) bool {
	if len(body.List) == 0 {
		return false
	}
	ifStmt, ok := body.List[0].(*ast.IfStmt)
	if !ok || ifStmt.Init != nil {
		return false
	}
	cmp, ok := ifStmt.Cond.(*ast.BinaryExpr)
	for ok && cmp.Op == token.LOR {
		cmp, ok = cmp.X.(*ast.BinaryExpr)
	}
	if !ok || cmp.Op != token.EQL {
		return false
	}
	isRecv := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == recvName
	}
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isRecv(cmp.X) && isNil(cmp.Y)) || (isNil(cmp.X) && isRecv(cmp.Y))
}
