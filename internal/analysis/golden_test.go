package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// stdExports lists export data for the stdlib packages the fixtures
// import (plus their dependency closure), once per test binary.
var stdExports = sync.OnceValues(func() (map[string]string, error) {
	_, exports, err := listPackages(".", "context", "errors", "fmt", "math/rand")
	return exports, err
})

// wantRe matches the golden expectation comments: // want "regexp"
var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// TestGolden runs each analyzer alone over its fixture package under
// testdata/src/<name> and checks the findings against the // want
// comments, in both directions: every want must be hit, and every
// diagnostic must be wanted. The fixtures double as the acceptance
// demonstration — each contains at least one true positive and one
// justified-annotation suppression.
func TestGolden(t *testing.T) {
	exports, err := stdExports()
	if err != nil {
		t.Fatalf("listing stdlib export data: %v", err)
	}
	for _, a := range Analyzers {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", a.Name)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("fixture dir: %v", err)
			}
			fset := token.NewFileSet()
			var files []*ast.File
			var wants []*expectation
			for _, e := range entries {
				if !strings.HasSuffix(e.Name(), ".go") {
					continue
				}
				path := filepath.Join(dir, e.Name())
				f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil {
					t.Fatalf("parsing fixture: %v", err)
				}
				files = append(files, f)
				wants = append(wants, parseWants(t, fset, f)...)
			}
			pkg, err := Check(fset, a.Name, files, exportImporter(fset, exports))
			if err != nil {
				t.Fatalf("type-checking fixture: %v", err)
			}
			var diags []Diagnostic
			a.Run([]*Package{pkg}, func(d Diagnostic) {
				d.Analyzer = a.Name
				diags = append(diags, d)
			})
			for _, d := range diags {
				if w := matchWant(wants, d); w != nil {
					w.matched = true
					continue
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: want %q, but the analyzer reported nothing matching it", w.file, w.line, w.pattern)
				}
			}
			if len(wants) == 0 {
				t.Errorf("fixture for %s has no // want expectations", a.Name)
			}
		})
	}
}

func parseWants(t *testing.T, fset *token.FileSet, f *ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("bad want pattern %q: %v", m[1], err)
			}
			pos := fset.Position(c.Pos())
			wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
		}
	}
	return wants
}

func matchWant(wants []*expectation, d Diagnostic) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.pattern.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

// TestGoldenSuppressionsPresent keeps the fixtures honest about their
// second job: each must demonstrate at least one justified annotation
// that the matching analyzer stays silent about.
func TestGoldenSuppressionsPresent(t *testing.T) {
	annotations := map[string]string{
		"detrange":  "//pgvet:sorted ",
		"spanclose": "//pgvet:spanok ",
		"ctxflow":   "//pgvet:ctxbg ",
		"noalloc":   "//pgvet:allocok ",
	}
	for _, a := range Analyzers {
		src, err := os.ReadFile(filepath.Join("testdata", "src", a.Name, a.Name+".go"))
		if err != nil {
			t.Fatalf("%s fixture: %v", a.Name, err)
		}
		if !strings.Contains(string(src), annotations[a.Name]) {
			t.Errorf("%s fixture demonstrates no justified %q suppression", a.Name, strings.TrimSpace(annotations[a.Name]))
		}
	}
}
