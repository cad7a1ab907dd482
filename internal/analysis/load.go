package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Load resolves patterns with `go list -json -export -deps` run in dir,
// parses and type-checks every matched (non-dependency) package from
// source, and returns them sharing one FileSet. Imports — the module's own
// packages and the standard library alike — are resolved through the
// build cache's export data, so loading needs nothing beyond the go
// toolchain itself. Test files are not loaded: pgvet's contracts are
// production-path contracts, and two of them (math/rand global state, map
// iteration) are deliberately looser in tests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, exports, err := listPackages(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)

	var pkgs []*Package
	for _, t := range targets {
		// Fail with the package and import named rather than letting the
		// importer surface a bare "no export data" mid-type-check: a dep
		// that does not compile (or a cgo package, which go list exports
		// only when cgo preprocessing ran) both land here.
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("pgvet: package %s uses cgo, which pgvet does not analyze", t.ImportPath)
		}
		for _, ipath := range t.Imports {
			if ipath == "unsafe" || ipath == "C" {
				continue
			}
			if _, ok := exports[ipath]; !ok {
				return nil, fmt.Errorf("pgvet: package %s: no compiled export data for import %q (does it build?)", t.ImportPath, ipath)
			}
		}
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("pgvet: %w", err)
			}
			files = append(files, f)
		}
		pkg, err := Check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = t.Dir
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// listPkg is the subset of `go list -json` output the loader reads.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
}

// listPackages runs `go list -json -export -deps` in dir and returns the
// directly-matched packages plus an import-path → export-data-file map
// covering everything listed (matches and dependencies alike).
func listPackages(dir string, patterns ...string) ([]listPkg, map[string]string, error) {
	cmd := exec.Command("go", append([]string{"list", "-json", "-export", "-deps"}, patterns...)...)
	cmd.Dir = dir
	raw, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			return nil, nil, fmt.Errorf("pgvet: go list: %s", bytes.TrimSpace(ee.Stderr))
		}
		return nil, nil, fmt.Errorf("pgvet: go list: %w", err)
	}
	var targets []listPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("pgvet: decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}

// exportImporter resolves imports from build-cache export data files —
// the gc importer handles "unsafe" itself.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("pgvet: no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Check type-checks one package's parsed files with the given importer
// and wraps the result. It is the single type-checking entry point: Load
// uses it for real packages, the golden-test harness for testdata ones.
func Check(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("pgvet: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Name:       tpkg.Name(),
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Run loads patterns in dir and runs the full analyzer suite — the
// programmatic equivalent of `pgvet <patterns>`.
func Run(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunAnalyzers(pkgs), nil
}
