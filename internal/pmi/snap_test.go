package pmi

import (
	"bytes"
	"strings"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/snapbin"
)

// snapCodecs runs an index section through each snapshot encoding.
var snapCodecs = []struct {
	name string
	save func(t *testing.T, idx *Index) []byte
	load func(data []byte, cols int) (*Index, error)
}{
	{"binary",
		func(t *testing.T, idx *Index) []byte {
			w := snapbin.NewWriter()
			idx.EncodeSnap(w.Section(1))
			var buf bytes.Buffer
			if _, err := w.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		func(data []byte, cols int) (*Index, error) {
			snap, err := snapbin.Parse(data)
			if err != nil {
				return nil, err
			}
			sec, _ := snap.Section(1)
			return DecodeSnap(snapbin.NewCursor(sec), cols)
		}},
	{"text",
		func(t *testing.T, idx *Index) []byte {
			var buf bytes.Buffer
			e := snapbin.NewTextEncoder(&buf)
			idx.EncodeSnap(e.Section("pmi"))
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		},
		loadTextSection},
}

func loadTextSection(data []byte, cols int) (*Index, error) {
	d := snapbin.NewTextDecoder(bytes.NewReader(data))
	d.Section("pmi")
	idx, err := DecodeSnap(d, cols)
	if err != nil {
		return nil, err
	}
	return idx, d.Close()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 88, 5, true)
	idx := mustBuild(t, graphs, engines, feats, NewOptions())
	for _, codec := range snapCodecs {
		back, err := codec.load(codec.save(t, idx), len(graphs))
		if err != nil {
			t.Fatalf("%s: %v", codec.name, err)
		}
		if back.NumFeatures() != idx.NumFeatures() {
			t.Fatalf("%s: features %d vs %d", codec.name, back.NumFeatures(), idx.NumFeatures())
		}
		for fi := range idx.Features {
			if graph.CanonicalCode(back.Features[fi]) != graph.CanonicalCode(idx.Features[fi]) {
				t.Fatalf("%s: feature %d graph mismatch", codec.name, fi)
			}
			if back.NumGraphs() != idx.NumGraphs() {
				t.Fatalf("%s: %d columns, want %d", codec.name, back.NumGraphs(), idx.NumGraphs())
			}
			for gi := 0; gi < idx.NumGraphs(); gi++ {
				if a, b := idx.At(fi, gi), back.At(fi, gi); a != b {
					t.Fatalf("%s: entry (%d,%d): %+v vs %+v", codec.name, fi, gi, a, b)
				}
			}
		}
	}
}

// TestLoadErrors: a section that lies about its shape is an error before
// any row is built from it.
func TestLoadErrors(t *testing.T) {
	const feat = "str \"f\"\nu32 1\nstr \"a\"\nu32 0\n" // one-vertex feature graph
	section := func(body string) string {
		return snapbin.TextHeader + "\nsection pmi\n" + body + "endpgsnap\n"
	}
	for i, tc := range []struct{ in, want string }{
		{"", "end of file"},
		{section(""), "snapshot header"},
		{section("u32 1\nu32 3\n"), "covers 3 graphs"},
		{section("u32 1\nu32 2\n"), "feature 0"},
		{section("u32 1\nu32 2\n" + feat + "bytes \"\\x01\"\nf64s 1 0.1\n"), "snapshot payload"},
		{section("u32 1\nu32 2\n" + feat + "bytes \"\\x01\\x00\"\nf64s 1 0.1\nf64s 1 0.2\n"), "bitmap has 2 bytes"},
		{section("u32 1\nu32 2\n" + feat + "bytes \"\\x03\"\nf64s 1 0.1\nf64s 1 0.2\n"), "2 contained bits"},
		{section("u32 1\nu32 2\n" + feat + "bytes \"\\x01\"\nf64s 1 0.1\nf64s 1 0.2\nu32 7\n"), "want a known section"},
	} {
		_, err := loadTextSection([]byte(tc.in), 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("case %d: error %v, want one containing %q", i, err, tc.want)
		}
	}
	ok := section("u32 1\nu32 2\n" + feat + "bytes \"\\x01\"\nf64s 1 0.1\nf64s 1 0.2\n")
	idx, err := loadTextSection([]byte(ok), 2)
	if err != nil {
		t.Fatalf("well-formed section rejected: %v", err)
	}
	if e := idx.At(0, 0); !e.Contained || e.Lower != 0.1 || e.Upper != 0.2 || idx.At(0, 1).Contained {
		t.Fatalf("entries %+v %+v", e, idx.At(0, 1))
	}
}

func TestSaveLoadEmptyIndex(t *testing.T) {
	for _, codec := range snapCodecs {
		back, err := codec.load(codec.save(t, &Index{}), 0)
		if err != nil {
			t.Fatalf("%s: %v", codec.name, err)
		}
		if back.NumFeatures() != 0 {
			t.Fatalf("%s: empty index round trip failed", codec.name)
		}
	}
}
