package main

import (
	"bytes"
	"testing"
)

// TestRunFlagErrorExit pins exit 2 for unparseable flags.
func TestRunFlagErrorExit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workers", "many"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2 for a flag parse error", code)
	}
}
