package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// TestRunCleanOnRepo is the gate CI relies on: the full suite over the
// real module reports nothing. Any finding here means either a real
// contract violation slipped in or an annotation lost its justification.
func TestRunCleanOnRepo(t *testing.T) {
	diags, err := Run(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("pgvet load: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// brokenFixture violates all four contracts at once. It lives in a
// throwaway module so `go list` resolves it like any real target.
const brokenFixture = `// Package core deliberately violates every pgvet contract.
package core

import (
	"context"
	"fmt"
	"math/rand"
)

type Span struct{ n string }

func (s Span) Child(name string) Span { return Span{n: name} }
func (s Span) End()                   {}

func RangeMap(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n + rand.Intn(10)
}

func LeakSpan(parent Span, fail bool) error {
	sp := parent.Child("stage")
	if fail {
		return fmt.Errorf("boom")
	}
	sp.End()
	return nil
}

func Launder(ctx context.Context) context.Context {
	return context.Background()
}

//pgvet:noalloc
func Format(x int) string {
	return fmt.Sprintf("%d", x)
}
`

// TestRunFlagsBrokenFixture proves the non-zero-exit half of the driver
// contract: a module violating each invariant produces at least one
// finding from every analyzer.
func TestRunFlagsBrokenFixture(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixture\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "core.go"), brokenFixture)

	diags, err := Run(dir, "./...")
	if err != nil {
		t.Fatalf("pgvet load: %v", err)
	}
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	for _, a := range Analyzers {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s reported nothing on the broken fixture; findings: %v", a.Name, diags)
		}
	}
}

// TestRunLoadError confirms load failures surface as errors, which the
// CLI turns into exit 2 (distinct from exit 1 for findings).
func TestRunLoadError(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module fixture\n\ngo 1.24\n")
	writeFile(t, filepath.Join(dir, "bad.go"), "package core\n\nfunc Broken() { return 3 }\n")
	if _, err := Run(dir, "./..."); err == nil {
		t.Fatal("expected a load/type-check error for an unbuildable package")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
