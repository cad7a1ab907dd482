package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// gzipMagic starts every pprof output file: runtime/pprof gzips both CPU
// and heap profiles. A created-but-never-flushed profile is empty and
// fails this check — which is exactly the regression (os.Exit skipping
// the flushing defers) these tests pin.
func assertProfile(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("profile not written: %v", err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Errorf("%s: not a flushed pprof profile (%d bytes, no gzip magic) — an early-exit path skipped Flush", filepath.Base(path), len(b))
	}
}

// TestRunValidationExitFlushesProfiles is the satellite regression test:
// a validation rejection (exit 2) must still leave complete profile
// files behind, even though it exits long before the normal end of run.
func TestRunValidationExitFlushesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stderr bytes.Buffer
	code := run([]string{"-meanprob", "1.5", "-cpuprofile", cpu, "-memprofile", mem}, &stderr)
	if code != 2 {
		t.Fatalf("run = %d, want 2 (validation error); stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-meanprob") {
		t.Errorf("stderr does not name the rejected flag: %s", stderr.String())
	}
	assertProfile(t, cpu)
	assertProfile(t, mem)
}

// TestRunGeneratesWithProfiles covers the success path end to end: a
// small database lands in -o and both profiles flush.
func TestRunGeneratesWithProfiles(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "db.pgraph")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stderr bytes.Buffer
	code := run([]string{"-n", "4", "-o", out, "-cpuprofile", cpu, "-memprofile", mem}, &stderr)
	if code != 0 {
		t.Fatalf("run = %d, want 0; stderr: %s", code, stderr.String())
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("no database written to %s (err=%v)", out, err)
	}
	assertProfile(t, cpu)
	assertProfile(t, mem)
}

// TestRunFlagErrorExit pins exit 2 for unparseable flags (no profiles
// are started yet on that path, so nothing else to assert).
func TestRunFlagErrorExit(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-n", "notanint"}, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2 for a flag parse error", code)
	}
}

// TestRunNegativeQFromExit: a negative source index is refused up front
// as a flag error, not taken modulo the graph count into a negative index.
func TestRunNegativeQFromExit(t *testing.T) {
	var stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "q.pgraph")
	if code := run([]string{"-query", "-n", "3", "-qfrom", "-1", "-o", out}, &stderr); code != 2 || !strings.Contains(stderr.String(), "-qfrom") {
		t.Fatalf("run = %d, stderr %q; want 2 naming -qfrom", code, stderr.String())
	}
}
