// Package analysis is pgvet's analyzer suite: a stdlib-only (go/ast,
// go/parser, go/types, go/importer — no x/tools) static-analysis driver
// plus four project-specific passes that mechanically enforce invariants
// no runtime test sees on unexercised paths:
//
//   - detrange:  determinism — no map iteration in query/render-path
//     packages without an order-insensitivity justification, and no
//     global math/rand state outside tests.
//   - spanclose: span hygiene — every obs span is ended by a defer on the
//     statement after the one that opens it, so it closes on every
//     return, error and panic (obs.Stage is that shape).
//   - ctxflow:   context flow — a function that receives a
//     context.Context never launders it through context.Background() and
//     never calls the ctx-less variant of a callee that has one.
//   - noalloc:   zero-alloc contract — functions annotated
//     //pgvet:noalloc contain none of the allocating constructs the
//     AllocsPerRun pins can miss on unexercised branches.
//
// Concurrency discipline is checked at run time only (see ARCHITECTURE.md,
// "Static analysis & invariants"): -race over the typed atomics, the
// race-mode churn and cancellation stress, the goroutine-baseline
// assertions.
//
// Runtime tests (AllocsPerRun, the serial≡parallel identity properties,
// the cancel-closes-spans sweep) catch violations late and only on
// exercised paths; these passes catch them at vet time on all paths.
// Each pass has an explicit, justified escape hatch — an annotation
// comment of the form
//
//	//pgvet:<name> <one-line why>
//
// on the offending line, the line above it, or (for function-scoped
// directives) in the function's doc comment. Suppressions without a
// justification are themselves findings: the why is the point.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for file:line:col rendering.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Analyzer is one pass. Run receives every loaded package and reports
// findings through report.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(pkgs []*Package, report func(Diagnostic))
}

// Analyzers is the pgvet suite in execution order.
var Analyzers = []*Analyzer{
	DetRange,
	SpanClose,
	CtxFlow,
	NoAlloc,
}

// RunAnalyzers runs every analyzer over pkgs and returns the findings
// sorted by position.
func RunAnalyzers(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range Analyzers {
		run := func(d Diagnostic) {
			d.Analyzer = a.Name
			report(d)
		}
		a.Run(pkgs, run)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// directive is one parsed //pgvet:<name> <arg> comment.
type directive struct {
	name string // e.g. "sorted", "noalloc"
	arg  string // the justification text, "" if absent
}

// directives indexes a file's pgvet annotations by the line they sit on.
type directives map[int][]directive

// parseDirectives collects every //pgvet: comment in file, keyed by line.
// One comment may carry several directives ("//pgvet:sorted why
// //pgvet:allocok why"): each introducer starts a new directive whose
// argument runs to the next introducer.
func parseDirectives(fset *token.FileSet, file *ast.File) directives {
	const introducer = "//pgvet:"
	ds := directives{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			line := fset.Position(c.Pos()).Line
			rest := c.Text
			for {
				i := strings.Index(rest, introducer)
				if i < 0 {
					break
				}
				rest = rest[i+len(introducer):]
				text := rest
				if j := strings.Index(text, introducer); j >= 0 {
					text = text[:j]
				}
				name, arg, _ := strings.Cut(text, " ")
				ds[line] = append(ds[line], directive{name: name, arg: strings.TrimSpace(arg)})
			}
		}
	}
	return ds
}

// at returns the named directive attached to a node at the given line:
// on the line itself (trailing comment) or the line directly above.
func (ds directives) at(line int, name string) (directive, bool) {
	for _, l := range []int{line, line - 1} {
		for _, d := range ds[l] {
			if d.name == name {
				return d, true
			}
		}
	}
	return directive{}, false
}

// onFunc returns the named directive scoped to a whole function: anywhere
// in its doc comment, or on the line directly above the declaration.
func (ds directives) onFunc(fset *token.FileSet, fd *ast.FuncDecl, name string) (directive, bool) {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			line := fset.Position(c.Pos()).Line
			for _, d := range ds[line] {
				if d.name == name {
					return d, true
				}
			}
		}
	}
	return ds.at(fset.Position(fd.Pos()).Line, name)
}

// suppressed reports whether a finding at node line `line` is covered by
// a justified (non-empty why) escape directive, either on the line or on
// the enclosing function. An unjustified directive does not suppress —
// the analyzers separately flag it as missing its why.
func suppressed(ds directives, fset *token.FileSet, fd *ast.FuncDecl, line int, name string) (ok, unjustified bool) {
	d, found := ds.at(line, name)
	if !found && fd != nil {
		d, found = ds.onFunc(fset, fd, name)
	}
	if !found {
		return false, false
	}
	return d.arg != "", d.arg == ""
}

// enclosingFunc returns the FuncDecl in file whose body spans pos, if any.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
