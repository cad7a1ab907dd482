// Command pgvet runs the project-invariant static-analysis suite over
// the given package patterns (default ./...) and prints one
// file:line:col diagnostic per finding (or, with -json, a JSON array of
// findings for tooling). Paths are shown relative to the working
// directory when they fall under it. Exit status: 0 clean, 1 when
// findings exist, 2 when loading or type-checking fails. A timing line
// on stderr reports packages analyzed and wall time. See internal/analysis
// for what each of the four passes enforces and the //pgvet: annotation
// escape hatches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"probgraph/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is the -json wire form of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pgvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of file:line:col lines")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pgvet [-json] [packages]")
		fmt.Fprintln(stderr, "Runs the four probgraph invariant analyzers (detrange, spanclose, ctxflow, noalloc).")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	start := time.Now()
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := analysis.RunAnalyzers(pkgs)
	elapsed := time.Since(start)

	// Relativize paths under the working directory: shorter lines, and CI
	// problem matchers annotate by repo-relative path.
	if wd, err := os.Getwd(); err == nil {
		for i := range diags {
			if rel, err := filepath.Rel(wd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				diags[i].Pos.Filename = rel
			}
		}
	}

	if *jsonOut {
		out := make([]finding, 0, len(diags))
		for _, d := range diags {
			out = append(out, finding{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}

	fmt.Fprintf(stderr, "pgvet: %d package(s), %d analyzer(s) in %s\n",
		len(pkgs), len(analysis.Analyzers), elapsed.Round(time.Millisecond))
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "pgvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
