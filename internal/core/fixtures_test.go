package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/snapbin"
)

// The checked-in snapshot fixtures under testdata/snapshots pin the
// on-disk formats. v1_tiny/v2_tiny.pgsnapb are databases first written by
// two early releases, converted to v4 by the last release that read the
// old text formats; their recorded answers are replayed in
// snapshot_compat_test.go. The v5/v4 pairs below pin the current text and
// binary formats against each other. The *_oldlayout files, like v1/v2,
// were written when the struct section still carried tables derived from
// its count matrix: they are inputs only, and must load to exactly what
// the current-layout file of the same database holds (the tombstone pair
// also keeps the removed graph in its dead slot) — a family-cell database,
// since their options predate exact cells (familyFixture). All of them
// seed FuzzLoadDatabase.

func fixturePath(name string) string { return filepath.Join(fixtureDir, name) }

func currentFixtureNames() []string {
	return []string{"v5_tiny.pgsnap", "v4_tiny.pgsnapb", "v5_tiny_tombs.pgsnap", "v4_tiny_tombs.pgsnapb"}
}

// oldLayoutFixtures maps each older-layout file to the current-layout
// fixture of the same corpus. Their options blobs predate pmi.Options.Exact,
// so they hold family cells: the database such a file holds is
// familyFixture's, not the exact-cell fixture's.
var oldLayoutFixtures = map[string]string{
	"v4_tiny_oldlayout.pgsnapb": "v4_tiny.pgsnapb",
	"v5_tiny_oldlayout.pgsnap":  "v5_tiny.pgsnap",
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
// commit the result. CI runs it too and fails on any diff, so the files
// stay what a fresh build writes. Without the variable it only verifies
// the files exist. The converted v1/v2 fixtures and the *_oldlayout files are never
// regenerated — their writers are gone.
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

// familyFixture is what this build writes for the database of an
// older-layout fixture that maps to cur: the fixture corpus built with the
// options that file carries — family cells, no Exact key — with graph 2
// removed for a tombstone file, saved in cur's format.
func familyFixture(t *testing.T, cur string) (*Database, []byte) {
	t.Helper()
	_, raw := snapDB(t, 8)
	opt := DefaultBuildOptions()
	opt.PMI.Exact = false
	db, err := NewDatabase(raw.Graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cur, "_tombs") {
		if _, err := db.RemoveGraph(2); err != nil {
			t.Fatal(err)
		}
	}
	return db, saveBytes(t, db.View(), fixtureFormat(cur))
}

// TestExactCellLegacySnapshot: an options blob written before
// pmi.Options.Exact existed loads as family cells, so a graph added to
// such a snapshot gets the column a family build computes for it, while the
// current fixture adds an exact column.
func TestExactCellLegacySnapshot(t *testing.T) {
	fam, _ := familyFixture(t, "v5_tiny.pgsnap")
	exact, _ := snapDB(t, 8)
	src := 0
	for src < fam.Len() && slices.Equal(fam.View().PMI.Lookup(src), exact.View().PMI.Lookup(src)) {
		src++
	}
	if src == fam.Len() {
		t.Fatal("every family column equals its exact column; the test cannot tell them apart")
	}
	for _, c := range []struct {
		file string
		want *Database
	}{{"v5_tiny_oldlayout.pgsnap", fam}, {"v4_tiny_oldlayout.pgsnapb", fam}, {"v5_tiny.pgsnap", exact}} {
		db, _ := loadFixture(t, c.file)
		if got, want := db.View().PMI.Opt, c.want.View().PMI.Opt; got != want {
			t.Fatalf("%s loads PMI options %+v, want %+v", c.file, got, want)
		}
		gi, _, err := db.AddGraph(db.View().Graphs[src])
		if err != nil {
			t.Fatal(err)
		}
		if got, want := db.View().PMI.Lookup(gi), c.want.View().PMI.Lookup(src); !slices.Equal(got, want) {
			t.Errorf("%s: added column %+v, a fresh build's is %+v", c.file, got, want)
		}
	}
}

// TestSnapshotFixtureReplay is the cross-format contract on disk: the v5
// text and v4 binary fixtures of the same corpus must answer recorded
// queries identically (with and without tombstones), and every fixture
// must survive load→save byte-identically; an older-layout file answers
// like, and re-saves as, the current-layout file of its database. A
// failure here means a codec change altered the meaning of existing files.
func TestSnapshotFixtureReplay(t *testing.T) {
	qs, opt := fixtureQueries(t)

	type recorded struct {
		Answers []int
		SSP     map[int]float64
	}
	answersOf := func(db *Database, workers int) []recorded {
		opt := opt
		opt.Concurrency = workers
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
	answersAt := func(name string, workers int) []recorded {
		db, _ := loadFixture(t, name)
		return answersOf(db, workers)
	}
	answers := func(name string) []recorded { return answersAt(name, 1) }

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
	for old, cur := range oldLayoutFixtures {
		fam, want := familyFixture(t, cur)
		for _, workers := range []int{1, 4} {
			if !reflect.DeepEqual(answersAt(old, workers), answersOf(fam, 1)) {
				t.Errorf("%s answers diverge from a family build of %s at %d workers", old, cur, workers)
			}
		}
		db, _ := loadFixture(t, old)
		if !bytes.Equal(saveBytes(t, db.View(), fixtureFormat(cur)), want) {
			t.Errorf("%s: load→save is not a family build of %s byte for byte", old, cur)
		}
	}
	// The older-layout tombstone files also hold the removed graph in its
	// dead slot, where a file written today holds the empty graph. A load
	// keeps what the file held, so they answer like a family build of the
	// current fixtures' corpus and re-save longer than it, byte-stably from
	// the first save on.
	for old, cur := range map[string]string{
		"v4_tiny_tombs_oldlayout.pgsnapb": "v4_tiny_tombs.pgsnapb",
		"v5_tiny_tombs_oldlayout.pgsnap":  "v5_tiny_tombs.pgsnap",
	} {
		fam, curBytes := familyFixture(t, cur)
		if !reflect.DeepEqual(answers(old), answersOf(fam, 1)) {
			t.Errorf("%s answers diverge from a family build of %s", old, cur)
		}
		db, _ := loadFixture(t, old)
		saved := saveBytes(t, db.View(), fixtureFormat(cur))
		again, err := LoadDatabase(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("%s re-saved: %v", old, err)
		}
		if len(saved) <= len(curBytes) || !bytes.Equal(saveBytes(t, again.View(), fixtureFormat(cur)), saved) {
			t.Errorf("%s: re-save (%d B, %s is %d B) dropped the dead slot's graph or is not byte-stable", old, len(saved), cur, len(curBytes))
		}
	}
}

// fixtureQueries is the workload replayed against the v4/v5 fixtures: three
// queries drawn from the fixture corpus at thresholds where each has an
// answer and the structural filter drops most of the eight graphs.
func fixtureQueries(t *testing.T) ([]*graph.Graph, QueryOptions) {
	_, raw := snapDB(t, 8)
	return snapQueries(t, raw, 3), QueryOptions{Epsilon: 0.1, Delta: 1, OptBounds: true, Seed: 9}
}

// bg is the context of every test query that exercises no cancellation.
var bg = context.Background()

// withoutSection returns a copy of a snapshot, in either encoding, with
// section s left out: in text its marker and payload lines are dropped, in
// binary its section-table record is (the payload stays behind as bytes no
// record points at).
func withoutSection(t testing.TB, raw []byte, s section) []byte {
	t.Helper()
	if !snapbin.IsBinary(raw) {
		var out []byte
		skip, found := false, false
		for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
			if bytes.HasPrefix(line, []byte("section ")) || bytes.HasPrefix(line, []byte("endpgsnap")) {
				skip = string(line) == "section "+s.name+"\n"
				found = found || skip
			}
			if !skip {
				out = append(out, line...)
			}
		}
		if !found {
			t.Fatalf("text snapshot has no %s section", s.name)
		}
		return out
	}
	if _, err := snapbin.Parse(raw); err != nil {
		t.Fatal(err)
	}
	out := bytes.Clone(raw)
	n := int(binary.LittleEndian.Uint64(out[8:16]))
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint64(out[16+24*i:]) == s.kind {
			copy(out[16+24*i:], out[16+24*(i+1):16+24*n])
			clear(out[16+24*(n-1) : 16+24*n])
			binary.LittleEndian.PutUint64(out[8:16], uint64(n-1))
			return out
		}
	}
	t.Fatalf("binary snapshot has no %s section", s.name)
	return nil
}

// withoutPostingsOf returns a copy of an older-layout snapshot in which the
// struct section's posting slab no longer mentions graph victim: every
// occurrence becomes graph other. Lengths and offset tables are untouched,
// so the tables stay well-formed — they only disagree with the counts.
func withoutPostingsOf(t testing.TB, raw []byte, victim, other int) []byte {
	t.Helper()
	out := bytes.Clone(raw)
	if !snapbin.IsBinary(out) {
		// Text: the slab is the section's last line.
		end := bytes.Index(out, []byte("\nsection pmi\n"))
		start := bytes.LastIndexByte(out[:end], '\n') + 1
		toks := strings.Fields(string(out[start:end]))
		if toks[0] != "i32s" {
			t.Fatalf("struct section ends in %q, not a slab", toks[0])
		}
		for i := 2; i < len(toks); i++ {
			if toks[i] == strconv.Itoa(victim) {
				toks[i] = strconv.Itoa(other)
			}
		}
		return slices.Concat(out[:start], []byte(strings.Join(toks, " ")), out[end:])
	}
	snap, err := snapbin.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	sec, _ := snap.Section(secStruct.kind)
	c := snapbin.NewCursor(sec)
	nf := c.Int()
	c.Int() // ng
	c.U32() // shard width
	c.U32() // pad
	for fi := 0; fi < nf; fi++ {
		if _, err := graph.DecodeSnap(c); err != nil {
			t.Fatal(err)
		}
	}
	c.Align8()
	c.I32s() // counts
	if shards := c.Int(); shards != 1 {
		t.Fatalf("fixture has %d posting shards, want 1", shards)
	}
	c.U32()  // lo
	c.U32()  // n
	c.I32s() // level offsets
	c.I32s() // entry offsets
	n := int(c.U64())
	c.Align8()
	if c.Err() != nil || c.Remaining() != 4*n {
		t.Fatalf("struct section does not end in its posting slab (err %v, %d bytes left for %d entries)", c.Err(), c.Remaining(), n)
	}
	slab := sec[len(sec)-4*n:]
	for i := 0; i < n; i++ {
		if binary.LittleEndian.Uint32(slab[4*i:]) == uint32(victim) {
			binary.LittleEndian.PutUint32(slab[4*i:], uint32(other))
		}
	}
	return out
}

// TestSnapshotPostingsCannotDisagree: a snapshot in the older layout whose
// posting tables omit a graph — well-formed tables, so nothing a geometry
// check could catch — used to lose that graph from every answer until the
// first write rebuilt the tables. The tables are read past now: the file
// answers as the untampered one does and re-saves as the current-layout
// file of its database (familyFixture), byte for byte.
func TestSnapshotPostingsCannotDisagree(t *testing.T) {
	qs, opt := fixtureQueries(t)
	crafted := 0
	for old, cur := range oldLayoutFixtures {
		want, curBytes := familyFixture(t, cur)
		_, oldBytes := loadFixture(t, old)
		for qi, q := range qs {
			wr, err := want.View().QueryCtx(bg, q, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, victim := range wr.Answers {
				tampered := withoutPostingsOf(t, oldBytes, victim, (victim+1)%want.Len())
				if bytes.Equal(tampered, oldBytes) {
					t.Fatalf("%s: graph %d has no posting entry to remove", old, victim)
				}
				crafted++
				db, err := LoadDatabase(bytes.NewReader(tampered))
				if err != nil {
					t.Fatalf("%s without postings of %d: %v", old, victim, err)
				}
				got, err := db.View().QueryCtx(bg, q, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Answers, wr.Answers) || !reflect.DeepEqual(got.SSP, wr.SSP) {
					t.Errorf("%s without postings of %d, query %d: answers %v, want %v", old, victim, qi, got.Answers, wr.Answers)
				}
				if !bytes.Equal(saveBytes(t, db.View(), fixtureFormat(cur)), curBytes) {
					t.Errorf("%s without postings of %d: load→save is not a family build of %s byte for byte", old, victim, cur)
				}
			}
		}
	}
	if crafted < 2*len(qs) {
		t.Fatalf("only %d tampered files for %d queries in two encodings: some query has no answer to lose", crafted, len(qs))
	}
}
