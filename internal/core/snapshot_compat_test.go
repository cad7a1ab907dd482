package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"probgraph/internal/graph"
)

const fixtureDir = "../../testdata/snapshots"

// replayConvertedFixture loads a fixture whose database was first written
// by a pre-v4 release and converted to v4 by the last release that read
// the old text formats, and asserts it answers with the answers recorded
// when it was first written — at every worker count — and that re-saving
// it gives a smaller file (these fixtures carry the struct section's older
// layout) that is byte-stable from then on, in both encodings.
func replayConvertedFixture(t *testing.T, fixture string) *Database {
	t.Helper()
	db, raw := loadFixture(t, fixture+".pgsnapb")
	if db.View().Generation != 1 || db.View().Tombstones() != 0 {
		t.Fatalf("%s restored at generation %d with %d tombstones, want 1 and 0",
			fixture, db.View().Generation, db.View().Tombstones())
	}

	// The recorded run: pgsearch -epsilon 0.3 -delta 2 -seed 5 on query 0
	// (per-query seed BatchSeed(5, 0) = 5).
	q := fixtureQuery(t, fixture+"_query.pgraph")
	want := fixtureExpected(t, fixture+"_expected.json")
	opt := QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: BatchSeed(5, 0)}
	for _, workers := range []int{1, 4} {
		o := opt
		o.Concurrency = workers
		res, err := db.View().QueryCtx(bg, q, o)
		if err != nil {
			t.Fatal(err)
		}
		assertRecorded(t, res, want, workers)
	}

	for _, format := range []SnapshotFormat{SnapshotBinary, SnapshotText} {
		saved := saveBytes(t, db.View(), format)
		if format == SnapshotBinary && len(saved) >= len(raw) {
			t.Fatalf("%s: re-saved file is %d B, the older-layout fixture %d B", fixture, len(saved), len(raw))
		}
		db2, err := LoadDatabase(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saveBytes(t, db2.View(), format), saved) {
			t.Fatalf("%s: %s snapshot not byte-stable across a round trip", fixture, format)
		}
	}
	return db
}

// TestLoadV1FixtureSnapshot replays the database first written by the
// earliest revision that saved one.
func TestLoadV1FixtureSnapshot(t *testing.T) { replayConvertedFixture(t, "v1_tiny") }

// TestLoadV2FixtureSnapshot replays the database first written by the
// revision before generations existed.
func TestLoadV2FixtureSnapshot(t *testing.T) { replayConvertedFixture(t, "v2_tiny") }

// TestMutateFixtureSaveTextReplay is the acceptance check for carrying an
// old database forward: load the converted fixtures, mutate (add +
// remove), save as text — the snapshot must carry generation and
// tombstones and round-trip byte-stably — reload, and replay the recorded
// query: the surviving graphs must answer exactly as recorded (slots are
// stable under tombstoning), with the removed slot filtered out.
func TestMutateFixtureSaveTextReplay(t *testing.T) {
	for _, fixture := range []string{"v1_tiny", "v2_tiny"} {
		db, _ := loadFixture(t, fixture+".pgsnapb")
		q := fixtureQuery(t, fixture+"_query.pgraph")
		want := fixtureExpected(t, fixture+"_expected.json")
		if len(want.Answers) == 0 {
			t.Fatalf("%s: recorded run has no answers; fixture unusable for removal replay", fixture)
		}
		victim := want.Answers[0]

		// Mutate: insert a copy of slot 0's graph, tombstone a recorded
		// answer.
		if _, _, err := db.AddGraph(db.View().Graphs[0]); err != nil {
			t.Fatalf("%s: add: %v", fixture, err)
		}
		if _, err := db.RemoveGraph(victim); err != nil {
			t.Fatalf("%s: remove: %v", fixture, err)
		}

		text := saveBytes(t, db.View(), SnapshotText)
		if !bytes.Contains(text, []byte(fmt.Sprintf("section generation\nu64 3\ni32s 1 %d\n", victim))) {
			t.Fatalf("%s: text snapshot lacks the generation/tombstone section", fixture)
		}
		reloaded, err := LoadDatabase(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("%s: reloading: %v", fixture, err)
		}
		if reloaded.View().Generation != 3 || reloaded.View().Tombstones() != 1 {
			t.Fatalf("%s: reloaded gen=%d tombs=%d, want 3 and 1",
				fixture, reloaded.View().Generation, reloaded.View().Tombstones())
		}
		if !bytes.Equal(saveBytes(t, reloaded.View(), SnapshotText), text) {
			t.Fatalf("%s: text snapshot with tombstones not byte-stable", fixture)
		}

		// Replay on the original slots: recorded answers minus the
		// tombstoned one, SSP bitwise for every surviving recorded
		// candidate. The inserted graph occupies a fresh slot (>= the
		// original length) with no recorded estimate — it is ignored.
		res, err := reloaded.View().QueryCtx(bg, q, QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: BatchSeed(5, 0)})
		if err != nil {
			t.Fatal(err)
		}
		originalLen := reloaded.Len() - 1
		var gotOriginal []int
		for _, gi := range res.Answers {
			if gi < originalLen {
				gotOriginal = append(gotOriginal, gi)
			}
		}
		wantAnswers := make([]int, 0, len(want.Answers)-1)
		for _, gi := range want.Answers {
			if gi != victim {
				wantAnswers = append(wantAnswers, gi)
			}
		}
		if !slices.Equal(gotOriginal, wantAnswers) {
			t.Fatalf("%s: replay answers %v, want recorded-minus-victim %v", fixture, gotOriginal, wantAnswers)
		}
		for gi, ssp := range res.SSP {
			if gi >= originalLen {
				continue // the inserted copy has no recorded estimate
			}
			if w, ok := want.SSP[strconv.Itoa(gi)]; ok && w != ssp {
				t.Fatalf("%s: replay SSP[%d] = %v, recorded %v", fixture, gi, ssp, w)
			}
		}
	}
}

// fixtureQuery loads a recorded query graph.
func fixtureQuery(t *testing.T, name string) *graph.Graph {
	t.Helper()
	qf, err := os.Open(filepath.Join(fixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	q, err := graph.NewDecoder(qf).Decode()
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// recordedRun is the shape of the *_expected.json fixtures.
type recordedRun struct {
	Answers []int              `json:"answers"`
	SSP     map[string]float64 `json:"ssp"`
}

// fixtureExpected loads a recorded answer set.
func fixtureExpected(t *testing.T, name string) recordedRun {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(fixtureDir, name))
	if err != nil {
		t.Fatal(err)
	}
	var want recordedRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// assertRecorded compares one run against a recorded one, bitwise.
func assertRecorded(t *testing.T, res *Result, want recordedRun, workers int) {
	t.Helper()
	if !slices.Equal(res.Answers, want.Answers) {
		t.Fatalf("workers=%d: answers %v, recorded %v", workers, res.Answers, want.Answers)
	}
	if len(res.SSP) != len(want.SSP) {
		t.Fatalf("workers=%d: SSP map has %d entries, recorded %d", workers, len(res.SSP), len(want.SSP))
	}
	for gi, ssp := range res.SSP {
		if w := want.SSP[strconv.Itoa(gi)]; w != ssp {
			t.Fatalf("workers=%d graph %d: SSP %v, recorded %v", workers, gi, ssp, w)
		}
	}
}
