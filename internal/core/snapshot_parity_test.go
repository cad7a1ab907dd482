package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/pmi"
	"probgraph/internal/snapbin"
)

// notPersisted lists the exported fields a snapshot deliberately does not
// carry, each with the reason. assertRoundTrip checks the value the loader
// re-derives for them; every other exported field of View, pmi.Index and
// feature.Feature must come back deep-equal — so a field added to one of
// those structs and forgotten in its encode/decode pair fails here.
var notPersisted = map[string]string{
	"View.Certain": "each entry aliases Graphs[i].G; the loader re-derives the slice",
	"View.Build":   "build-time metrics, not state; the loader repopulates the fields queries read",
}

var bothFormats = []SnapshotFormat{SnapshotText, SnapshotBinary}

// snapshotCases are the shapes a snapshot can take: every optional
// section present and absent, every id list empty and populated.
func snapshotCases(t *testing.T) map[string]*View {
	t.Helper()
	full, _ := snapDB(t, 8)
	mutated, _ := snapDB(t, 8)
	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, Organisms: 1, Correlated: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mutated.AddGraph(extra.Graphs[0]); err != nil {
		t.Fatal(err)
	}
	for _, gi := range []int{5, 2} {
		if _, err := mutated.RemoveGraph(gi); err != nil {
			t.Fatal(err)
		}
	}
	part, err := mutated.View().Range(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*View{"full": full.View(), "mutated": mutated.View(), "range": part}
}

func reload(t *testing.T, v *View, format SnapshotFormat) *View {
	t.Helper()
	db, err := LoadDatabase(bytes.NewReader(saveBytes(t, v, format)))
	if err != nil {
		t.Fatalf("LoadDatabase(%s): %v", format, err)
	}
	return db.View()
}

// comparePersisted deep-compares every exported field of two structs of
// one type, except the notPersisted ones and those the caller compares
// separately (because they nest a notPersisted field).
func comparePersisted(t *testing.T, label string, got, want any, separately ...string) {
	t.Helper()
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		f := gv.Type().Field(i)
		key := gv.Type().Name() + "." + f.Name
		if !f.IsExported() || notPersisted[key] != "" || slices.Contains(separately, f.Name) {
			continue
		}
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("%s: %s changed across the round trip", label, key)
		}
	}
}

// assertRoundTrip compares a reloaded view with the one that was saved,
// by value.
func assertRoundTrip(t *testing.T, label string, got, want *View) {
	t.Helper()
	comparePersisted(t, label, got, want, "Features", "PMI")
	if !reflect.DeepEqual(got.opt, want.opt) || got.NumLive() != want.NumLive() || !reflect.DeepEqual(got.gids, want.gids) {
		t.Errorf("%s: options, live count or global ids changed across the round trip", label)
	}
	for gi := range want.Graphs {
		if got.Live(gi) != want.Live(gi) {
			t.Errorf("%s: slot %d liveness changed across the round trip", label, gi)
		}
	}

	// View.engines, View.Certain, View.Build: re-derived.
	n := len(got.Graphs)
	if len(got.engines) != n || len(got.Certain) != n {
		t.Fatalf("%s: %d engine slots and %d certain graphs for %d graphs", label, len(got.engines), len(got.Certain), n)
	}
	for gi := range got.Graphs {
		if got.Certain[gi] != got.Graphs[gi].G {
			t.Errorf("%s: Certain[%d] does not alias Graphs[%d].G", label, gi, gi)
		}
		if e, err := got.Engine(gi); err != nil || e == nil {
			t.Errorf("%s: engine %d not rebuilt on demand: %v", label, gi, err)
		}
	}
	if got.Build.Features != len(got.Features) {
		t.Errorf("%s: Build.Features = %d, want %d", label, got.Build.Features, len(got.Features))
	}

	if len(got.Features) != len(want.Features) {
		t.Fatalf("%s: %d features, want %d", label, len(got.Features), len(want.Features))
	}
	for fi, f := range got.Features {
		comparePersisted(t, label, f, want.Features[fi])
	}

	comparePersisted(t, label, got.PMI, want.PMI, "Entries")
	if got.Build.IndexSizeBytes != got.PMI.SizeBytes() {
		t.Errorf("%s: Build.IndexSizeBytes = %d, want %d", label, got.Build.IndexSizeBytes, got.PMI.SizeBytes())
	}
	for fi := range got.PMI.Features {
		// A dead slot's freed column is saved as uncontained and reads
		// as the paper's ⟨0⟩ after the load.
		for gi := 0; gi < got.PMI.NumGraphs(); gi++ {
			e := got.PMI.At(fi, gi)
			if w := want.PMI.At(fi, gi); e != w || (!got.Live(gi) && e != (pmi.Entry{})) {
				t.Fatalf("%s: PMI entry (%d,%d) = %+v, want %+v", label, fi, gi, e, w)
			}
		}
	}
}

// TestSnapshotValueRoundTrip: save→load in each format returns every
// persisted field by value.
func TestSnapshotValueRoundTrip(t *testing.T) {
	for name, v := range snapshotCases(t) {
		for _, format := range bothFormats {
			assertRoundTrip(t, name+"/"+string(format), reload(t, v, format), v)
		}
	}
}

// TestSnapshotTextByteStable: text save→load→save is byte-identical for
// every snapshot shape.
func TestSnapshotTextByteStable(t *testing.T) {
	for name, v := range snapshotCases(t) {
		first := saveBytes(t, v, SnapshotText)
		if second := saveBytes(t, reload(t, v, SnapshotText), SnapshotText); !bytes.Equal(first, second) {
			t.Errorf("%s: text snapshot not byte-stable: %d vs %d bytes", name, len(first), len(second))
		}
	}
}

// TestSnapshotTextLoadEqualsBinaryLoad: the two encodings are one
// database — the views they load to are deep-equal, unexported state
// included.
func TestSnapshotTextLoadEqualsBinaryLoad(t *testing.T) {
	for name, v := range snapshotCases(t) {
		text, bin := reload(t, v, SnapshotText), reload(t, v, SnapshotBinary)
		if reflect.DeepEqual(text, bin) {
			continue
		}
		t.Errorf("%s: text load and binary load differ", name)
		tv, bv := reflect.ValueOf(text).Elem(), reflect.ValueOf(bin).Elem()
		for i := 0; i < tv.NumField(); i++ {
			if f := tv.Type().Field(i); f.IsExported() && !reflect.DeepEqual(tv.Field(i).Interface(), bv.Field(i).Interface()) {
				t.Errorf("%s: field %s differs", name, f.Name)
			}
		}
	}
}

// TestSnapshotTombstoneOrder: the loader takes the tombstone list only in
// the form the writer produces — strictly ascending, in range. A
// duplicated or unsorted list would load to a view whose re-save carries a
// different list than the file it came from.
func TestSnapshotTombstoneOrder(t *testing.T) {
	v := snapshotCases(t)["mutated"] // tombstones 2 and 5

	text := string(saveBytes(t, v, SnapshotText))
	const tombLine = "\ni32s 2 2 5\n"
	if !strings.Contains(text, "section generation\nu64 4"+tombLine) {
		t.Fatal("setup: tombstone line not where expected")
	}
	// The binary generation section is u64 generation, u64 count, int32s.
	withBinaryTombs := func(a, b int32) []byte {
		data := saveBytes(t, v, SnapshotBinary)
		snap, err := snapbin.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		sec, _ := snap.Section(secGeneration.kind)
		if binary.LittleEndian.Uint64(sec[8:]) != 2 {
			t.Fatal("setup: binary tombstone count not where expected")
		}
		binary.LittleEndian.PutUint32(sec[16:], uint32(a)) // sec aliases data
		binary.LittleEndian.PutUint32(sec[20:], uint32(b))
		return data
	}

	for _, tc := range []struct {
		name string
		a, b int32
		ok   bool
	}{
		{"as written", 2, 5, true},
		{"unsorted", 5, 2, false},
		{"duplicated", 2, 2, false},
		{"negative", -1, 2, false},
		{"out of range", 2, 9, false},
	} {
		inputs := map[SnapshotFormat][]byte{
			SnapshotText:   []byte(strings.Replace(text, tombLine, fmt.Sprintf("\ni32s 2 %d %d\n", tc.a, tc.b), 1)),
			SnapshotBinary: withBinaryTombs(tc.a, tc.b),
		}
		for _, format := range bothFormats {
			db, err := LoadDatabase(bytes.NewReader(inputs[format]))
			if tc.ok && (err != nil || db.View().Tombstones() != 2) {
				t.Errorf("%s/%s: well-formed list rejected: %v", tc.name, format, err)
			}
			if !tc.ok && (err == nil || !strings.Contains(err.Error(), "tombstone")) {
				t.Errorf("%s/%s: loaded without a tombstone error: %v", tc.name, format, err)
			}
		}
	}
}
