package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LeakCheck audits every `go` launch site for a provable termination path,
// the static half of the goroutine-baseline assertions in core's ctx
// tests (which can only count goroutines on exercised schedules). A
// launch passes when its body shows at least one accepted shape:
//
//   - it watches a context — any reference to a context.Context value
//     (ctx.Done(), ctx.Err(), deriving a child) ties its lifetime to a
//     cancelable tree;
//   - it signals a WaitGroup — the body calls Done on a WaitGroup that
//     some function in the same package Waits on (the pool worker
//     pattern);
//   - it drains a closable channel — the body ranges over or receives
//     from a channel that the same package provably closes (a stop
//     channel closed by the launching function).
//
// Channels and WaitGroups are matched the way the other passes match
// identities: by types.Object for locals (closure captures included) and
// by atomicmix-style field keys for struct fields, so the evidence search
// spans the whole package, not just the launching function.
//
// A goroutine that is deliberately process-lifetime (a pprof listener, an
// accept loop) carries //pgvet:leakok <why> on the launch line or the
// launching function; the justification is mandatory.
var LeakCheck = &Analyzer{
	Name: "leakcheck",
	Doc:  "every `go` launch site has a provable termination path or a justified //pgvet:leakok",
	Run:  runLeakCheck,
}

func runLeakCheck(pkgs []*Package, report func(Diagnostic)) {
	cg := buildCallGraph(pkgs)
	for _, pkg := range pkgs {
		closed, waited := packageTerminationFacts(pkg)
		for _, file := range pkg.Files {
			ds := parseDirectives(pkg.Fset, file)
			f := file
			ast.Inspect(file, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(pkg, cg, f, ds, gs, closed, waited, report)
				return true
			})
		}
	}
}

// chanOrWgKey identifies a channel or WaitGroup across a package:
// a types.Object for variables, an atomicmix-style field key string for
// struct fields. The two spaces cannot collide.
func chanOrWgKey(pkg *Package, expr ast.Expr) any {
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[e]; obj != nil {
			return obj
		}
		if obj := pkg.Info.Defs[e]; obj != nil {
			return obj
		}
	case *ast.SelectorExpr:
		if key := fieldKey(pkg, e); key != "" {
			return key
		}
	}
	return nil
}

// packageTerminationFacts scans every declaration in pkg for the two
// package-level termination signals: channels passed to close(), and
// WaitGroups some function calls Wait() on.
func packageTerminationFacts(pkg *Package) (closed, waited map[any]bool) {
	closed = map[any]bool{}
	waited = map[any]bool{}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && len(call.Args) == 1 {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					if key := chanOrWgKey(pkg, call.Args[0]); key != nil {
						closed[key] = true
					}
				}
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				if isWaitGroupExpr(pkg, sel.X) {
					if key := chanOrWgKey(pkg, sel.X); key != nil {
						waited[key] = true
					}
				}
			}
			return true
		})
	}
	return closed, waited
}

func isWaitGroupExpr(pkg *Package, expr ast.Expr) bool {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := derefType(tv.Type).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

func checkGoStmt(pkg *Package, cg *callGraph, file *ast.File, ds directives,
	gs *ast.GoStmt, closed, waited map[any]bool, report func(Diagnostic)) {
	pos := pkg.Fset.Position(gs.Pos())
	fd := enclosingFunc(file, gs.Pos())
	if ok, unjustified := suppressed(ds, pkg.Fset, fd, pos.Line, "leakok"); ok {
		return
	} else if unjustified {
		report(Diagnostic{Pos: pos, Message: "//pgvet:leakok annotation is missing its one-line justification"})
		return
	}

	// The body under audit: the launched literal, or the declaration of
	// the named function being launched. Evidence for a named launch is
	// still judged against the *launching* package's close/Wait facts when
	// the callee is in the same package; a cross-package named launch is
	// audited against its own package if it is loaded.
	var body ast.Node
	evPkg := pkg
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if fn := calleeFunc(pkg, gs.Call); fn != nil {
			if node := cg.node(funcKey(fn)); node != nil {
				body = node.decl.Body
				evPkg = node.pkg
			}
		}
	}
	if body == nil {
		report(Diagnostic{Pos: pos, Message: "goroutine launches a function pgvet cannot see into; " +
			"annotate //pgvet:leakok <why> or launch a declared function"})
		return
	}
	if evPkg != pkg {
		closed, waited = packageTerminationFacts(evPkg)
	}
	if goroutineTerminates(evPkg, body, closed, waited) {
		return
	}
	report(Diagnostic{Pos: pos, Message: "goroutine has no provable termination path " +
		"(no context watched, no WaitGroup.Done with a package-side Wait, no receive from a channel the package closes); " +
		"tie it to one or annotate //pgvet:leakok <why>"})
}

// goroutineTerminates scans body for any accepted termination evidence.
// Nested `go` bodies are skipped: a child goroutine's lifetime says
// nothing about its parent's.
func goroutineTerminates(pkg *Package, body ast.Node, closed, waited map[any]bool) bool {
	terminates := false
	skip := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if gs, ok := n.(*ast.GoStmt); ok {
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				skip[lit.Body] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		if terminates || skip[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			// Evidence: the body references a context value.
			if obj := pkg.Info.Uses[n]; obj != nil && isContextType(derefType(obj.Type())) {
				terminates = true
			}
		case *ast.CallExpr:
			// Evidence: wg.Done() with a Wait on the same WaitGroup.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" && isWaitGroupExpr(pkg, sel.X) {
				if key := chanOrWgKey(pkg, sel.X); key != nil && waited[key] {
					terminates = true
				}
			}
		case *ast.UnaryExpr:
			// Evidence: <-ch where the package closes ch.
			if n.Op == token.ARROW {
				if key := chanOrWgKey(pkg, n.X); key != nil && closed[key] {
					terminates = true
				}
			}
		case *ast.RangeStmt:
			// Evidence: for range ch where the package closes ch.
			if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					if key := chanOrWgKey(pkg, n.X); key != nil && closed[key] {
						terminates = true
					}
				}
			}
		}
		return !terminates
	})
	return terminates
}
