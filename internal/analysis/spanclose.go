package analysis

import (
	"go/ast"
	"go/types"
)

// SpanClose enforces span hygiene by construction. The span a Child or
// Root call returns (a call to a method or function of that name whose
// static result is a named type Span) must be bound to a variable and
// ended by a defer on the very next statement of the same block:
//
//	sp := parent.Child("stage")
//	defer sp.End() // or defer sp.EndCount(n), or defer func() { …sp.End… }()
//
// Nothing can leave the function between the open and the defer, so the
// span ends on every return, error and panic, and no path needs walking.
// Pipeline stages get that shape from obs.Stage, the one function that
// opens a stage span. Every other creator call is a finding: a discarded
// result, a span ended by hand (even on every path), one handed to a
// caller or a struct, one whose defer comes after a statement that could
// return first.
//
// Escape hatch: //pgvet:spanok <why> on the opening line or the function
// suppresses, with the justification mandatory.
var SpanClose = &Analyzer{
	Name: "spanclose",
	Doc:  "every obs span is ended by a defer on the statement after the one that opens it",
	Run:  runSpanClose,
}

func runSpanClose(pkgs []*Package, report func(Diagnostic)) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ds := parseDirectives(pkg.Fset, file)
			// verdict holds the finding for each creator call that opens a
			// statement, "" when the next statement defers its end.
			verdict := map[*ast.CallExpr]string{}
			ast.Inspect(file, func(n ast.Node) bool {
				var list []ast.Stmt
				switch b := n.(type) {
				case *ast.BlockStmt:
					list = b.List
				case *ast.CaseClause:
					list = b.Body
				case *ast.CommClause:
					list = b.Body
				}
				for i, st := range list {
					if call, msg := openedSpan(pkg, st, list[i+1:]); call != nil {
						verdict[call] = msg
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSpanCreator(pkg, call) {
					return true
				}
				msg, seen := verdict[call]
				if !seen {
					msg = "span is not bound to a variable and ended by a defer on the next statement; open stage spans with obs.Stage"
				}
				if msg == "" {
					return true
				}
				p := pkg.Fset.Position(call.Pos())
				if ok, unjustified := suppressed(ds, pkg.Fset, enclosingFunc(file, call.Pos()), p.Line, "spanok"); ok {
					return true
				} else if unjustified {
					msg = "//pgvet:spanok annotation is missing its one-line justification"
				}
				report(Diagnostic{Pos: p, Message: msg})
				return true
			})
		}
	}
}

// openedSpan reports the creator call st opens a span with, if any, and
// the finding for it given the statements that follow st in its block:
// "" when the first of them defers the span's end.
func openedSpan(pkg *Package, st ast.Stmt, rest []ast.Stmt) (*ast.CallExpr, string) {
	switch s := st.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && isSpanCreator(pkg, call) {
			return call, "span result discarded; it is never ended"
		}
	case *ast.AssignStmt:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return nil, ""
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		id, isIdent := s.Lhs[0].(*ast.Ident)
		if !ok || !isIdent || !isSpanCreator(pkg, call) {
			return nil, ""
		}
		if id.Name == "_" {
			return call, "span result discarded; it is never ended"
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if len(rest) > 0 && defersEnd(pkg, rest[0], obj) {
			return call, ""
		}
		return call, "span " + id.Name + " is not ended by a defer on the next statement; open stage spans with obs.Stage"
	}
	return nil, ""
}

// defersEnd reports whether st is `defer v.End()`, `defer v.EndCount(n)`,
// or a deferred func literal whose body calls one of them on v.
func defersEnd(pkg *Package, st ast.Stmt, v types.Object) bool {
	d, ok := st.(*ast.DeferStmt)
	if !ok || v == nil {
		return false
	}
	lit, isLit := d.Call.Fun.(*ast.FuncLit)
	if !isLit {
		return endsSpan(pkg, d.Call, v)
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && endsSpan(pkg, call, v) {
			found = true
		}
		return !found
	})
	return found
}

// endsSpan reports whether call is v.End() or v.EndCount(n).
func endsSpan(pkg *Package, call *ast.CallExpr, v types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" && sel.Sel.Name != "EndCount" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pkg.Info.Uses[id] == v
}

// isSpanCreator reports whether call opens a span: a call to a method or
// function named Child or Root whose static result type is a named type
// called Span.
func isSpanCreator(pkg *Package, call *ast.CallExpr) bool {
	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "Child" && name != "Root" {
		return false
	}
	named, ok := pkg.Info.Types[call].Type.(*types.Named)
	return ok && named.Obj().Name() == "Span"
}
