package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The whole-program layer shared by the interprocedural passes (lockorder,
// leakcheck): a class-hierarchy-analysis (CHA) call graph over
// every loaded package.
//
// Cross-package identity is the central design constraint. The same
// function is a different *types.Func depending on whether its package was
// type-checked from source (a target) or imported from export data (a
// dependency of another target), so nodes are keyed by strings —
// "pkgpath.Name" for functions, "pkgpath.Recv.Name" for methods — exactly
// the way atomicmix keys struct fields. Dynamic dispatch through an
// interface is resolved by CHA over the same string space: a call to an
// interface method adds edges to every concrete method in the loaded
// program with the same name and the same signature (printed with
// package-path qualification, which compares equal across the
// source/export-data divide where pointer identity would not).
//
// Function literals are inlined into their enclosing declaration: a call
// made inside a closure is an edge of the declaring function. That is the
// right model for the passes built on top — a closure runs on its
// creator's goroutine unless launched with `go`, and goroutine bodies get
// their own treatment in lockorder (separate roots with an empty held-lock
// set) and leakcheck (separate launch sites).

// cgCall is one static call site: the resolved callee keys (one for a
// static call, possibly several for an interface dispatch) at a position.
type cgCall struct {
	callees []string
	pos     token.Pos
}

// cgNode is one declared function or method in the loaded program.
type cgNode struct {
	key   string
	pkg   *Package
	decl  *ast.FuncDecl
	calls []cgCall // source order
}

// callGraph is the CHA call graph over a set of loaded packages.
type callGraph struct {
	nodes map[string]*cgNode
	// impls maps "name|signature" of a method to the keys of every
	// concrete method in the program matching it — the CHA dispatch table.
	impls map[string][]string
}

// funcKey returns the stable cross-package key for fn: "pkgpath.Name", or
// "pkgpath.Recv.Name" for a method on a named type. Generic instances
// share their origin's key.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
			}
			return obj.Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// pathQualifier qualifies type names with their full package path, so two
// renderings of the same signature compare equal even when the underlying
// types.Package pointers differ (source-loaded vs export-data-loaded).
func pathQualifier(p *types.Package) string { return p.Path() }

// methodSig renders fn's name and signature (receiver excluded) into the
// CHA dispatch key.
func methodSig(fn *types.Func) string {
	return fn.Name() + "|" + types.TypeString(fn.Type(), pathQualifier)
}

// buildCallGraph indexes every function declaration in pkgs and resolves
// its call sites.
func buildCallGraph(pkgs []*Package) *callGraph {
	cg := &callGraph{nodes: map[string]*cgNode{}, impls: map[string][]string{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(fn)
				cg.nodes[key] = &cgNode{key: key, pkg: pkg, decl: fd}
				if fd.Recv != nil {
					sig := methodSig(fn)
					cg.impls[sig] = append(cg.impls[sig], key)
				}
			}
		}
	}
	for _, node := range cg.nodes {
		n := node
		ast.Inspect(n.decl, func(an ast.Node) bool {
			call, ok := an.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callees := cg.resolveCallees(n.pkg, call); len(callees) > 0 {
				n.calls = append(n.calls, cgCall{callees: callees, pos: call.Pos()})
			}
			return true
		})
	}
	return cg
}

// resolveCallees maps a call expression to callee keys: the single static
// callee, or the CHA implementer set for an interface-method call. Calls
// through plain function values (and conversions, builtins) resolve to
// nothing — a known under-approximation shared with every CHA design.
func (cg *callGraph) resolveCallees(pkg *Package, call *ast.CallExpr) []string {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return cg.impls[methodSig(fn)]
		}
	}
	return []string{funcKey(fn)}
}

// node returns the declared node for key, or nil for functions outside the
// loaded program (stdlib, export-data-only dependencies).
func (cg *callGraph) node(key string) *cgNode { return cg.nodes[key] }

// sortedKeys returns every node key in deterministic order; the
// interprocedural passes iterate in this order so diagnostics and fixpoint
// tie-breaks never depend on map order.
func (cg *callGraph) sortedKeys() []string {
	keys := make([]string, 0, len(cg.nodes))
	for k := range cg.nodes { //pgvet:sorted keys are sorted on the next line
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
