package core

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"probgraph/internal/dataset"
)

// roundTripBinary snapshots db as pgsnap v4 and loads it back.
func roundTripBinary(t *testing.T, db *Database) *Database {
	t.Helper()
	return roundTripAs(t, db, SnapshotBinary)
}

// TestSnapshotBinaryDifferential: one corpus saved as v5 text and v4
// binary, loaded side by side, must answer bitwise-identically across
// every query mode — the two formats are one database.
func TestSnapshotBinaryDifferential(t *testing.T) {
	db, raw := snapDB(t, 10)
	text := roundTrip(t, db)
	bin := roundTripBinary(t, db)

	if bin.Len() != text.Len() || bin.View().Generation != text.View().Generation {
		t.Fatalf("shape diverged: binary %d/gen %d, text %d/gen %d",
			bin.Len(), bin.View().Generation, text.Len(), text.View().Generation)
	}
	for gi := 0; gi < text.Len(); gi++ {
		if !reflect.DeepEqual(text.View().PMI.Lookup(gi), bin.View().PMI.Lookup(gi)) {
			t.Fatalf("PMI column %d diverged between text and binary load", gi)
		}
	}

	qs := snapQueries(t, raw, 3)
	for i, q := range qs {
		for _, opt := range []QueryOptions{
			{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: int64(7 + i)},
			{Epsilon: 0.6, Delta: 1, Seed: int64(100 + i)},
		} {
			want, err := text.View().QueryCtx(bg, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			have, err := bin.View().QueryCtx(bg, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Answers, have.Answers) || !reflect.DeepEqual(want.SSP, have.SSP) {
				t.Fatalf("query %d: text and binary loads diverged", i)
			}
		}
	}

	wantTop, err := text.View().QueryTopKCtx(bg, qs[0], 3, QueryOptions{Delta: 1, OptBounds: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	haveTop, err := bin.View().QueryTopKCtx(bg, qs[0], 3, QueryOptions{Delta: 1, OptBounds: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantTop, haveTop) {
		t.Fatalf("topk diverged: %v != %v", haveTop, wantTop)
	}

	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 21, Concurrency: 3}
	wantBatch, err := text.View().QueryBatchCtx(bg, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	haveBatch, err := bin.View().QueryBatchCtx(bg, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantBatch {
		if !reflect.DeepEqual(wantBatch[i].Answers, haveBatch[i].Answers) ||
			!reflect.DeepEqual(wantBatch[i].SSP, haveBatch[i].SSP) {
			t.Fatalf("batch query %d diverged", i)
		}
	}

	sopt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 33}
	var wantStream, haveStream []Match
	for m, err := range text.View().QueryStream(context.Background(), qs[0], sopt) {
		if err != nil {
			t.Fatal(err)
		}
		wantStream = append(wantStream, m)
	}
	for m, err := range bin.View().QueryStream(context.Background(), qs[0], sopt) {
		if err != nil {
			t.Fatal(err)
		}
		haveStream = append(haveStream, m)
	}
	if !reflect.DeepEqual(wantStream, haveStream) {
		t.Fatalf("stream diverged: %v != %v", haveStream, wantStream)
	}
}

// TestSnapshotBinaryByteStable: save→load→save must be byte-identical —
// the binary codec has no formatting ambiguity to hide behind.
func TestSnapshotBinaryByteStable(t *testing.T) {
	db, _ := snapDB(t, 8)

	// Exercise the tombstone path too.
	if _, err := db.RemoveGraph(3); err != nil {
		t.Fatal(err)
	}

	first := saveBytes(t, db.View(), SnapshotBinary)
	reloaded, err := LoadDatabase(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if second := saveBytes(t, reloaded.View(), SnapshotBinary); !bytes.Equal(first, second) {
		t.Fatalf("binary snapshot not byte-stable: %d vs %d bytes", len(first), len(second))
	}
}

// TestSnapshotBinaryTombstones: generation and tombstones survive the
// binary round trip and removed graphs stay invisible to queries.
func TestSnapshotBinaryTombstones(t *testing.T) {
	db, raw := snapDB(t, 8)
	if _, err := db.RemoveGraph(2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RemoveGraph(5); err != nil {
		t.Fatal(err)
	}
	got := roundTripBinary(t, db)
	if got.View().Generation != db.View().Generation || got.View().Tombstones() != 2 || got.View().NumLive() != 6 {
		t.Fatalf("tombstone state diverged: gen %d/%d, tombs %d, live %d",
			got.View().Generation, db.View().Generation, got.View().Tombstones(), got.View().NumLive())
	}
	q := snapQueries(t, raw, 1)[0]
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 17}
	want, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Answers, have.Answers) || !reflect.DeepEqual(want.SSP, have.SSP) {
		t.Fatalf("tombstoned query diverged")
	}
}

// TestOpenSnapshot: the mmap-backed open answers identically to the
// in-memory load, for both formats.
func TestOpenSnapshot(t *testing.T) {
	db, raw := snapDB(t, 8)
	dir := t.TempDir()
	q := snapQueries(t, raw, 1)[0]
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 5}
	want, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []SnapshotFormat{SnapshotText, SnapshotBinary} {
		path := filepath.Join(dir, "snap-"+string(format))
		if err := db.SaveFile(path, format); err != nil {
			t.Fatalf("SaveFile(%s): %v", format, err)
		}
		got, err := OpenSnapshot(path)
		if err != nil {
			t.Fatalf("OpenSnapshot(%s): %v", format, err)
		}
		have, err := got.View().QueryCtx(bg, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Answers, have.Answers) || !reflect.DeepEqual(want.SSP, have.SSP) {
			t.Fatalf("OpenSnapshot(%s) answers diverged", format)
		}
	}
}

// TestSnapshotBinaryNoPMI: a structure-only database round-trips in v4.
func TestSnapshotBinaryNoPMI(t *testing.T) {
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
	got := roundTripBinary(t, db)
	if got.View().PMI != nil {
		t.Fatal("reloaded database unexpectedly has a PMI")
	}
	if got.View().NumLive() != db.View().NumLive() {
		t.Fatalf("reloaded database holds %d live graphs, want %d", got.View().NumLive(), db.View().NumLive())
	}
}

// TestSaveFileAtomic: a save that dies partway must leave an existing
// snapshot at the path untouched.
func TestSaveFileAtomic(t *testing.T) {
	db, _ := snapDB(t, 6)
	dir := t.TempDir()
	path := filepath.Join(dir, "snap")
	if err := db.SaveFile(path, SnapshotBinary); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the write partway: writeFileAtomic's writer fails after a few
	// bytes, simulating a crash mid-save.
	err = writeFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return os.ErrClosed
	})
	if err == nil {
		t.Fatal("want error from failed save")
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed save corrupted the existing snapshot")
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover temp files: %v", entries)
	}
	if _, err := LoadDatabase(bytes.NewReader(after)); err != nil {
		t.Fatalf("surviving snapshot no longer loads: %v", err)
	}
}
