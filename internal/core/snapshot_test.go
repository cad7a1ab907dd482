package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
)

// snapDB builds a small indexed database for snapshot tests.
func snapDB(t *testing.T, n int) (*Database, *dataset.DB) {
	t.Helper()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: n, MinVertices: 5, MaxVertices: 7, Organisms: 3,
		Correlated: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(raw.Graphs, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db, raw
}

func snapQueries(t *testing.T, raw *dataset.DB, k int) []*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	qs := make([]*graph.Graph, k)
	for i := range qs {
		qs[i] = dataset.ExtractQuery(raw.Graphs[i%len(raw.Graphs)].G, 4, rng)
	}
	return qs
}

// saveBytes snapshots a view in the given format.
func saveBytes(t *testing.T, v *View, format SnapshotFormat) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := v.SaveAs(&buf, format); err != nil {
		t.Fatalf("SaveAs(%s): %v", format, err)
	}
	return buf.Bytes()
}

// roundTripAs snapshots db in the given format and loads it back through
// the format-sniffing loader.
func roundTripAs(t *testing.T, db *Database, format SnapshotFormat) *Database {
	t.Helper()
	got, err := LoadDatabase(bytes.NewReader(saveBytes(t, db.View(), format)))
	if err != nil {
		t.Fatalf("LoadDatabase(%s): %v", format, err)
	}
	return got
}

// roundTrip snapshots db as text and loads it back.
func roundTrip(t *testing.T, db *Database) *Database {
	t.Helper()
	return roundTripAs(t, db, SnapshotText)
}

// TestSnapshotRoundTripIdentity: the reloaded database must answer queries
// bitwise-identically to the one that wrote the snapshot — same answers,
// same SSP estimates, same pruning counters.
func TestSnapshotRoundTripIdentity(t *testing.T) {
	db, raw := snapDB(t, 10)
	got := roundTrip(t, db)

	if got.Len() != db.Len() {
		t.Fatalf("reloaded %d graphs, want %d", got.Len(), db.Len())
	}
	if got.View().PMI == nil || got.View().PMI.NumFeatures() != db.View().PMI.NumFeatures() {
		t.Fatalf("PMI features: got %v, want %d", got.View().PMI, db.View().PMI.NumFeatures())
	}
	if len(got.View().Features) != len(db.View().Features) {
		t.Fatalf("mined features: got %d, want %d", len(got.View().Features), len(db.View().Features))
	}
	for fi := range db.View().PMI.Features {
		for gi := 0; gi < db.Len(); gi++ {
			a, b := db.View().PMI.At(fi, gi), got.View().PMI.At(fi, gi)
			if a != b {
				t.Fatalf("PMI entry (%d,%d) changed: %+v != %+v", fi, gi, b, a)
			}
		}
	}

	for i, q := range snapQueries(t, raw, 4) {
		for _, opt := range []QueryOptions{
			{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: int64(7 + i)},
			{Epsilon: 0.6, Delta: 1, Seed: int64(100 + i)}, // plain SSPBound
			{Epsilon: 0.4, Delta: 1, OptBounds: true, Verifier: VerifierExact, Seed: 3},
		} {
			want, err := db.View().QueryCtx(bg, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			have, err := got.View().QueryCtx(bg, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Answers, have.Answers) {
				t.Fatalf("query %d: answers %v != %v", i, have.Answers, want.Answers)
			}
			if !reflect.DeepEqual(want.SSP, have.SSP) {
				t.Fatalf("query %d: SSP %v != %v (not bitwise)", i, have.SSP, want.SSP)
			}
			if want.Stats.PrunedByUpper != have.Stats.PrunedByUpper ||
				want.Stats.AcceptedByLower != have.Stats.AcceptedByLower ||
				want.Stats.VerifyCandidates != have.Stats.VerifyCandidates ||
				want.Stats.StructConfirmed != have.Stats.StructConfirmed {
				t.Fatalf("query %d: pruning counters diverged: %+v != %+v", i, have.Stats, want.Stats)
			}
		}
	}
}

// TestSnapshotTopKAndBatch: the extended query modes agree across the
// round-trip too.
func TestSnapshotTopKAndBatch(t *testing.T) {
	db, raw := snapDB(t, 8)
	got := roundTrip(t, db)
	qs := snapQueries(t, raw, 3)

	wantTop, err := db.View().QueryTopKCtx(bg, qs[0], 3, QueryOptions{Delta: 1, OptBounds: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := got.View().QueryTopKCtx(bg, qs[0], 3, QueryOptions{Delta: 1, OptBounds: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantTop, haveTop) {
		t.Fatalf("topk diverged: %v != %v", haveTop, wantTop)
	}

	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 21, Concurrency: 3}
	wantBatch, err := db.View().QueryBatchCtx(bg, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	haveBatch, err := got.View().QueryBatchCtx(bg, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if !reflect.DeepEqual(wantBatch[i].Answers, haveBatch[i].Answers) ||
			!reflect.DeepEqual(wantBatch[i].SSP, haveBatch[i].SSP) {
			t.Fatalf("batch query %d diverged", i)
		}
	}
}

// TestSnapshotIncrementalAddGraph: AddGraph on a reloaded database produces
// the same column as on the original (options survive the round-trip).
func TestSnapshotIncrementalAddGraph(t *testing.T) {
	db, raw := snapDB(t, 8)
	got := roundTrip(t, db)

	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, Organisms: 1,
		Correlated: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	pg := extra.Graphs[0]
	wi, _, err := db.AddGraph(pg)
	if err != nil {
		t.Fatal(err)
	}
	hi, _, err := got.AddGraph(pg)
	if err != nil {
		t.Fatal(err)
	}
	if wi != hi {
		t.Fatalf("AddGraph index %d != %d", hi, wi)
	}
	for fi := range db.View().PMI.Features {
		if db.View().PMI.At(fi, wi) != got.View().PMI.At(fi, hi) {
			t.Fatalf("incremental PMI column diverged at feature %d: %+v != %+v",
				fi, got.View().PMI.At(fi, hi), db.View().PMI.At(fi, wi))
		}
	}

	q := snapQueries(t, raw, 1)[0]
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 13}
	want, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Answers, have.Answers) {
		t.Fatalf("post-AddGraph answers diverged: %v != %v", have.Answers, want.Answers)
	}
}

// TestSnapshotNoPMI: a structure-only database (SkipPMI) snapshots and
// reloads too.
func TestSnapshotNoPMI(t *testing.T) {
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 6, MinVertices: 5, MaxVertices: 6, Organisms: 2,
		Correlated: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.SkipPMI = true
	db, err := NewDatabase(raw.Graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, db)
	if got.View().PMI != nil {
		t.Fatal("reloaded database unexpectedly has a PMI")
	}
	q := snapQueries(t, raw, 1)[0]
	qo := QueryOptions{Epsilon: 0.4, Delta: 1, Seed: 2}
	want, err := db.View().QueryCtx(bg, q, qo)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.View().QueryCtx(bg, q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Answers, have.Answers) || !reflect.DeepEqual(want.SSP, have.SSP) {
		t.Fatalf("structure-only query diverged")
	}
}

// TestTombstoneRecordNeedsStructSection: the struct section holds the
// view's one liveness record (the tombstone mask lives in its index), so a
// snapshot without it is refused, in either encoding and through either
// loader, with an error naming the section — not loaded into a view whose
// first query dereferences a nil index.
func TestTombstoneRecordNeedsStructSection(t *testing.T) {
	db, _ := snapDB(t, 6)
	if _, err := db.RemoveGraph(2); err != nil {
		t.Fatal(err)
	}
	for _, format := range bothFormats {
		cut := withoutSection(t, saveBytes(t, db.View(), format), secStruct)
		path := filepath.Join(t.TempDir(), "nostruct")
		if err := os.WriteFile(path, cut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, loadErr := LoadDatabase(bytes.NewReader(cut))
		_, openErr := OpenSnapshot(path)
		for name, err := range map[string]error{"LoadDatabase": loadErr, "OpenSnapshot": openErr} {
			if err == nil || !strings.Contains(err.Error(), "missing struct section") {
				t.Errorf("%s %s without a struct section: error %v, want one naming the section", format, name, err)
			}
		}
	}
}

// TestSnapshotRejectsGarbage: loading a non-snapshot, a snapshot of a
// format no longer read, or a text snapshot with damaged framing fails
// cleanly.
func TestSnapshotRejectsGarbage(t *testing.T) {
	db, _ := snapDB(t, 6)
	good := string(saveBytes(t, db.View(), SnapshotText))
	cutSection := func(name string) string { // drops one section, marker and payload
		a := strings.Index(good, "section "+name+"\n")
		b := a + 1 + strings.Index(good[a+1:], "\nsection ")
		return good[:a] + good[b+1:]
	}
	for _, tc := range []struct{ name, in, want string }{
		{"dataset file", "pgraph g0 0\nend\n", "not a text snapshot"},
		{"empty", "", "end of file"},
		{"unknown version", "pgsnap v6\nsection options\n", "not a text snapshot"},
		{"header only", "pgsnap v5\n", "end of file"},
		{"no sections", "pgsnap v5\nendpgsnap\n", "missing options section"},
		{"missing graphs section", cutSection("graphs"), "missing graphs section"},
		{"sections out of order", strings.Replace(cutSection("generation"), "section graphs\n", "section graphs\nsection generation\n", 1), "missing generation section"},
		{"duplicate section", strings.Replace(good, "section generation\n", "section options\nsection generation\n", 1), "missing generation section"},
		{"unknown section", strings.Replace(good, "endpgsnap\n", "section extra\nu32 1\nendpgsnap\n", 1), "want a known section"},
		{"unread payload", strings.Replace(good, "section graphs\n", "u32 7\nsection graphs\n", 1), "missing graphs section"},
		{"missing trailer", strings.TrimSuffix(good, "endpgsnap\n"), "end of file"},
		{"content after trailer", good + "section pmi\n", "content after"},
	} {
		_, err := LoadDatabase(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// Truncation anywhere is an error: cut at line ends across the file.
	lines := strings.SplitAfter(good, "\n")
	for cut := 0; cut < len(lines)-1; cut += 1 + len(lines)/200 {
		if _, err := LoadDatabase(strings.NewReader(strings.Join(lines[:cut], ""))); err == nil {
			t.Fatalf("snapshot truncated to %d of %d lines loaded without error", cut, len(lines))
		}
	}
}
