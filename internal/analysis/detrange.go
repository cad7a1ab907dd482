package analysis

import (
	"go/ast"
	"go/types"
)

// detRangeScope names the packages whose loops feed either query answers
// or rendered output (snapshots, /metrics, /stats): the determinism
// contract — serial ≡ parallel ≡ pre-refactor, byte-stable exposition —
// makes map iteration order a bug there unless the loop body provably
// does not care. Scoping is by package name so the analyzer works
// unchanged on fixture modules and golden testdata.
var detRangeScope = map[string]bool{
	"core":      true,
	"feature":   true,
	"simsearch": true,
	"pmi":       true,
	"relax":     true,
	"cover":     true,
	"obs":       true,
	"server":    true,
}

// randAllowed are the math/rand package-level functions that do not touch
// the global (scheduling-ordered) source: constructors taking an explicit
// seed or source.
var randAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// DetRange enforces the determinism contract statically:
//
//   - In query/render-path packages, `range` over a map is a finding
//     unless the loop carries //pgvet:sorted <why> — iteration order is
//     random per run, and the contract demands bitwise-identical answers
//     and byte-stable rendered output.
//   - Anywhere (non-test files), calling a math/rand or math/rand/v2
//     package-level function backed by the global source is a finding:
//     global-state draws depend on everything else in the process, so
//     results stop being a pure function of (Seed, input). Seeded
//     rand.New(rand.NewSource(...)) and *rand.Rand methods are fine.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc:  "no map iteration in query/render-path packages without a //pgvet:sorted justification; no global math/rand state",
	Run:  runDetRange,
}

func runDetRange(pkgs []*Package, report func(Diagnostic)) {
	for _, pkg := range pkgs {
		inScope := detRangeScope[pkg.Name]
		for _, file := range pkg.Files {
			ds := parseDirectives(pkg.Fset, file)
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.RangeStmt:
					if inScope {
						checkMapRange(pkg, file, ds, n, report)
					}
				case *ast.Ident:
					checkGlobalRand(pkg, n, report)
				}
				return true
			})
		}
	}
}

func checkMapRange(pkg *Package, file *ast.File, ds directives, rs *ast.RangeStmt, report func(Diagnostic)) {
	tv, ok := pkg.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pos := pkg.Fset.Position(rs.Pos())
	fd := enclosingFunc(file, rs.Pos())
	ok, unjustified := suppressed(ds, pkg.Fset, fd, pos.Line, "sorted")
	if ok {
		return
	}
	msg := "range over map in package " + pkg.Name + " (iteration order is nondeterministic); sort the keys or annotate //pgvet:sorted <why>"
	if unjustified {
		msg = "//pgvet:sorted annotation is missing its one-line justification"
	}
	report(Diagnostic{Pos: pos, Message: msg})
}

func checkGlobalRand(pkg *Package, id *ast.Ident, report func(Diagnostic)) {
	obj := pkg.Info.Uses[id]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	// Methods (rng.Intn on a seeded *rand.Rand) are deterministic; only
	// package-level functions reach the global source.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	if randAllowed[fn.Name()] {
		return
	}
	report(Diagnostic{
		Pos: pkg.Fset.Position(id.Pos()),
		Message: "call to " + path + "." + fn.Name() +
			" uses the global rand source (nondeterministic under concurrency); seed a *rand.Rand via rand.New(rand.NewSource(seed)) instead",
	})
}
