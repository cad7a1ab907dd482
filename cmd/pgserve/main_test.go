package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRefusesFlags: every flag refusal exits 2 with its message before
// any file is opened. The paths do not exist, so a run that got as far as
// opening one would exit 1 instead — which the last case checks.
func TestRunRefusesFlags(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "missing.idx")
	db := filepath.Join(dir, "missing.pgraph")
	cases := []struct {
		args []string
		code int
		msg  string
	}{
		{nil, 2, "give exactly one of -snapshot or -db"},
		{[]string{"-snapshot", snap, "-db", db}, 2, "give exactly one of -snapshot or -db"},
		{[]string{"-snapshot", snap, "-timeout", "-1s"}, 2, "-timeout must be >= 0, got -1s"},
		{[]string{"-db", db, "-compact-threshold", "NaN"}, 2, "-compact-threshold must be a finite number <= 1, got NaN"},
		{[]string{"-db", db, "-compact-threshold", "+Inf"}, 2, "-compact-threshold must be a finite number <= 1, got +Inf"},
		{[]string{"-db", db, "-compact-threshold", "-Inf"}, 2, "-compact-threshold must be a finite number <= 1, got -Inf"},
		{[]string{"-db", db, "-compact-threshold", "1.5"}, 2, "-compact-threshold must be a finite number <= 1, got 1.5"},
		{[]string{"-snapshot", snap, "-log-format", "xml"}, 2, `unknown log format "xml"`},
		{[]string{"-snapshot", snap, "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{[]string{"-snapshot", snap, "-compact-threshold", "1"}, 1, "missing.idx"},
		{[]string{"-db", db, "-log-format", "json"}, 1, "missing.pgraph"},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		code := run(c.args, &stderr)
		if code != c.code || !strings.Contains(stderr.String(), c.msg) {
			t.Errorf("run(%q) = %d, want %d with %q; stderr: %s", c.args, code, c.code, c.msg, stderr.String())
		}
	}
}
