package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow enforces context plumbing: a function that receives a
// context.Context parameter must flow it downstream. Two failure shapes
// are flagged inside such functions:
//
//   - calling context.Background() or context.TODO() — laundering away
//     the caller's cancellation and the span carried in the ctx;
//   - calling the ctx-less variant X(...) of a callee that also has an
//     XCtx(...) form in scope (same package, or the method set of the
//     receiver being called) without passing any context argument — the
//     repo's convention since PR 5 is that every ctx-less entry point is
//     a thin wrapper over its Ctx sibling, so calling the wrapper from a
//     ctx-bearing function silently drops cancellation and tracing.
//
// Wrapper shims themselves (simsearch's one-line SCq → SCqCtx forwarder;
// core's query methods exist in the ctx-taking form only) do not receive a
// ctx, so they are out of scope by construction. Deliberate detachment
// (e.g. a background flusher that must outlive the request) is annotated
// //pgvet:ctxbg <why>.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "functions receiving a context must pass it on, not context.Background() or a ctx-less sibling",
	Run:  runCtxFlow,
}

func runCtxFlow(pkgs []*Package, report func(Diagnostic)) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ds := parseDirectives(pkg.Fset, file)
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !receivesContext(pkg, fd) {
					continue
				}
				checkCtxBody(pkg, file, ds, fd, report)
			}
		}
	}
}

// receivesContext reports whether fd has a parameter of type
// context.Context.
func receivesContext(pkg *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if tv, ok := pkg.Info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func checkCtxBody(pkg *Package, file *ast.File, ds directives, fd *ast.FuncDecl, report func(Diagnostic)) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, fromContextPkg := contextPkgCall(pkg, call); fromContextPkg && (name == "Background" || name == "TODO") {
			pos := pkg.Fset.Position(call.Pos())
			if ok, unjustified := suppressed(ds, pkg.Fset, fd, pos.Line, "ctxbg"); ok {
				return true
			} else if unjustified {
				report(Diagnostic{Pos: pos, Message: "//pgvet:ctxbg annotation is missing its one-line justification"})
				return true
			}
			report(Diagnostic{Pos: pos, Message: "context." + name + "() inside a ctx-receiving function discards the caller's context; pass the ctx parameter (or annotate //pgvet:ctxbg <why> for deliberate detachment)"})
			return true
		}
		checkCtxlessSibling(pkg, ds, fd, call, report)
		return true
	})
}

// contextPkgCall returns the function name if call targets a
// package-level function of package context.
func contextPkgCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return "", false
	}
	return fn.Name(), true
}

// checkCtxlessSibling flags a call to X when an XCtx sibling exists and
// no context argument is being passed.
func checkCtxlessSibling(pkg *Package, ds directives, fd *ast.FuncDecl, call *ast.CallExpr, report func(Diagnostic)) {
	// Already passing a context? Then whichever variant this is, the flow
	// is intact.
	for _, arg := range call.Args {
		if tv, ok := pkg.Info.Types[arg]; ok && tv.Type != nil && isContextType(tv.Type) {
			return
		}
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	name := fn.Name()
	sibling := name + "Ctx"
	if !hasSibling(pkg, call, fn, sibling) {
		return
	}
	pos := pkg.Fset.Position(call.Pos())
	if ok, unjustified := suppressed(ds, pkg.Fset, fd, pos.Line, "ctxbg"); ok {
		return
	} else if unjustified {
		report(Diagnostic{Pos: pos, Message: "//pgvet:ctxbg annotation is missing its one-line justification"})
		return
	}
	report(Diagnostic{Pos: pos, Message: "call to " + name + " drops this function's context; use " + sibling + " (or annotate //pgvet:ctxbg <why>)"})
}

// calleeFunc resolves the *types.Func a call statically targets, or nil
// for indirect calls, builtins, and conversions.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// hasSibling reports whether a callable named sibling exists where fn
// lives: for methods, in the method set of the receiver type; for
// functions, at package scope of fn's package.
func hasSibling(pkg *Package, call *ast.CallExpr, fn *types.Func, sibling string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		// Method: search the receiver's method set (both value and
		// pointer receivers).
		t := recv.Type()
		for _, mt := range []types.Type{t, types.NewPointer(derefType(t))} {
			ms := types.NewMethodSet(mt)
			for i := 0; i < ms.Len(); i++ {
				if ms.At(i).Obj().Name() == sibling {
					return siblingTakesContext(ms.At(i).Obj())
				}
			}
		}
		return false
	}
	obj := fn.Pkg().Scope().Lookup(sibling)
	if obj == nil {
		return false
	}
	return siblingTakesContext(obj)
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// siblingTakesContext confirms the XCtx candidate really accepts a
// context.Context — a name collision alone is not a finding.
func siblingTakesContext(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
