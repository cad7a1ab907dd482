package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestCheckMissingExportData pins the failure mode when an import's
// export data is unavailable: a clean error naming the package, not a
// nil dereference inside the importer.
func TestCheckMissingExportData(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package x\n\nimport \"sync\"\n\nvar Mu sync.Mutex\n", parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Check(fset, "x", []*ast.File{f}, exportImporter(fset, map[string]string{}))
	if err == nil {
		t.Fatal("expected an error for missing export data")
	}
	if !strings.Contains(err.Error(), "sync") {
		t.Errorf("error does not name the missing package: %v", err)
	}
}
