package main

import (
	"bytes"
	"strings"
	"testing"

	"probgraph/internal/stats"
)

// TestRunFlagErrorExit pins exit 2 for unparseable flags.
func TestRunFlagErrorExit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workers", "many"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2 for a flag parse error", code)
	}
}

// TestRunUnknownFigureExit: a -fig naming no figure — Figure 11 among
// them, which is superseded — is a flag error, refused before any data is
// generated, not a run that prints nothing and exits 0.
func TestRunUnknownFigureExit(t *testing.T) {
	for _, fig := range []string{"11", "9", "fig10"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-fig", fig}, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "unknown -fig") {
			t.Errorf("-fig %s: run = %d, stdout %q, stderr %q; want 2, nothing, an unknown -fig error", fig, code, stdout.String(), stderr.String())
		}
	}
}

// TestTableJSONFullPrecision: a float cell's series value is the value the
// table was given, not its 4-digit rendering, while integer and string
// cells still parse from their rendering and non-numeric ones drop out.
func TestTableJSONFullPrecision(t *testing.T) {
	tb := stats.NewTable("t", "x", "y", "label")
	tb.AddRow(1, 0.123456789, "n/a")
	tb.AddRow(2, "2.5", "3e-2")
	fj := tableJSON("t", tb, 0)
	if tb.Rows()[0][1] != "0.1235" {
		t.Fatalf("rendered cell %q, want 0.1235", tb.Rows()[0][1])
	}
	if len(fj.Series) != 2 {
		t.Fatalf("%d series, want 2: %+v", len(fj.Series), fj.Series)
	}
	y, label := fj.Series[0], fj.Series[1]
	if y.Name != "y" || len(y.Y) != 2 || y.Y[0] != 0.123456789 || y.Y[1] != 2.5 || y.X[0] != 1 || y.X[1] != 2 {
		t.Fatalf("series y = %+v, want x [1 2], y [0.123456789 2.5]", y)
	}
	if label.Name != "label" || len(label.Y) != 1 || label.X[0] != 2 || label.Y[0] != 3e-2 {
		t.Fatalf("series label = %+v, want x [2], y [0.03]", label)
	}
}
