package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The checked-in snapshot fixtures under testdata/snapshots pin the
// on-disk formats. v1_tiny/v2_tiny.pgsnapb are databases first written by
// the pre-postings and pre-generation releases, converted to v4 by the
// last release that read the old text formats; their recorded answers are
// replayed in snapshot_compat_test.go. The v5/v4 pairs below pin the
// current text and binary formats against each other. All of them seed
// FuzzLoadDatabase.

func fixturePath(name string) string { return filepath.Join(fixtureDir, name) }

func currentFixtureNames() []string {
	return []string{"v5_tiny.pgsnap", "v4_tiny.pgsnapb", "v5_tiny_tombs.pgsnap", "v4_tiny_tombs.pgsnapb"}
}

// fixtureFormat is the format a fixture file was written in.
func fixtureFormat(name string) SnapshotFormat {
	if strings.HasSuffix(name, ".pgsnapb") {
		return SnapshotBinary
	}
	return SnapshotText
}

// loadFixture reads and loads one fixture file.
func loadFixture(t *testing.T, name string) (*Database, []byte) {
	t.Helper()
	b, err := os.ReadFile(fixturePath(name))
	if err != nil {
		t.Fatalf("missing fixture %s (regenerate with PGSNAP_REGEN=1): %v", name, err)
	}
	db, err := LoadDatabase(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	return db, b
}

// TestRegenSnapshotFixtures is the maintenance entry point, not a test:
//
//	PGSNAP_REGEN=1 go test ./internal/core -run RegenSnapshotFixtures
//
// rewrites the current-format fixtures after a deliberate format change;
// commit the result. Without the variable it only verifies the files
// exist. The converted v1/v2 fixtures are never regenerated — the writers
// of the databases they hold are gone.
func TestRegenSnapshotFixtures(t *testing.T) {
	if os.Getenv("PGSNAP_REGEN") == "" {
		for _, name := range currentFixtureNames() {
			if _, err := os.Stat(fixturePath(name)); err != nil {
				t.Errorf("missing fixture %s — regenerate with PGSNAP_REGEN=1", name)
			}
		}
		return
	}
	db, _ := snapDB(t, 8)
	write := func(names ...string) {
		for _, name := range names {
			if err := os.WriteFile(fixturePath(name), saveBytes(t, db.View(), fixtureFormat(name)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("v5_tiny.pgsnap", "v4_tiny.pgsnapb")
	if _, err := db.RemoveGraph(2); err != nil {
		t.Fatal(err)
	}
	write("v5_tiny_tombs.pgsnap", "v4_tiny_tombs.pgsnapb")
}

// TestSnapshotFixtureReplay is the cross-format contract on disk: the v5
// text and v4 binary fixtures of the same corpus must answer recorded
// queries identically (with and without tombstones), and every fixture
// must survive load→save byte-identically. A failure here means a codec
// change altered the meaning of existing files.
func TestSnapshotFixtureReplay(t *testing.T) {
	_, raw := snapDB(t, 8)
	qs := snapQueries(t, raw, 3)
	opt := QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true, Seed: 9}

	type recorded struct {
		Answers []int
		SSP     map[int]float64
	}
	answers := func(name string) []recorded {
		db, _ := loadFixture(t, name)
		out := make([]recorded, len(qs))
		for i, q := range qs {
			r, err := db.View().QueryCtx(bg, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = recorded{r.Answers, r.SSP}
		}
		return out
	}

	if got, want := answers("v4_tiny.pgsnapb"), answers("v5_tiny.pgsnap"); !reflect.DeepEqual(got, want) {
		t.Errorf("v4_tiny.pgsnapb answers diverge from v5_tiny.pgsnap")
	}
	if got, want := answers("v4_tiny_tombs.pgsnapb"), answers("v5_tiny_tombs.pgsnap"); !reflect.DeepEqual(got, want) {
		t.Errorf("v4_tiny_tombs.pgsnapb answers diverge from v5_tiny_tombs.pgsnap")
	}

	for _, name := range currentFixtureNames() {
		db, b := loadFixture(t, name)
		if again := saveBytes(t, db.View(), fixtureFormat(name)); !bytes.Equal(again, b) {
			t.Errorf("%s: load→save not byte-identical (%d vs %d bytes)", name, len(again), len(b))
		}
	}
}

// bg is the context of every test query that exercises no cancellation.
var bg = context.Background()
