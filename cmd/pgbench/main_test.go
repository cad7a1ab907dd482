package main

import (
	"bytes"
	"strings"
	"testing"
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
