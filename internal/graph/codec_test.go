package graph

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestEncodeDecodeHostileTokens round-trips graphs whose names and labels
// contain spaces, comment markers, escapes, and unicode through the
// line-oriented codec.
func TestEncodeDecodeHostileTokens(t *testing.T) {
	mk := func(name string, vlabels []string, elabel Label) *Graph {
		b := NewBuilder(name)
		for _, l := range vlabels {
			b.AddVertex(Label(l))
		}
		for i := 1; i < len(vlabels); i++ {
			b.MustAddEdge(VertexID(i-1), VertexID(i), elabel)
		}
		return b.Build()
	}
	graphs := []*Graph{
		mk("q one", []string{"a b", "c#d"}, "e f"),
		mk("", []string{"-", "%", "100%"}, "-"),
		mk("#x", []string{"héllo", "世界"}, "→"),
		mk("plain", []string{"A", "B"}, ""),
	}
	var buf bytes.Buffer
	for _, g := range graphs {
		if err := Encode(&buf, g); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	for i, want := range graphs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("graph %d: %v\nstream:\n%s", i, err, buf.String())
		}
		if got.Name() != want.Name() {
			t.Errorf("graph %d: name %q != %q", i, got.Name(), want.Name())
		}
		if CanonicalCode(got) != CanonicalCode(want) {
			t.Errorf("graph %d: canonical code changed across round-trip", i)
		}
		for v := 0; v < want.NumVertices(); v++ {
			if got.VertexLabel(VertexID(v)) != want.VertexLabel(VertexID(v)) {
				t.Errorf("graph %d vertex %d: %q != %q", i, v,
					got.VertexLabel(VertexID(v)), want.VertexLabel(VertexID(v)))
			}
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("want EOF after last graph, got %v", err)
	}
}

func TestTokenEscaping(t *testing.T) {
	cases := map[string]string{
		"":      "-",
		"-":     "%2D",
		"a b":   "a%20b",
		"#":     "%23",
		"%":     "%25",
		"plain": "plain",
	}
	for in, want := range cases {
		if got := EncodeToken(in); got != want {
			t.Errorf("EncodeToken(%q) = %q, want %q", in, got, want)
		}
		if back := DecodeToken(EncodeToken(in)); back != in {
			t.Errorf("DecodeToken(EncodeToken(%q)) = %q", in, back)
		}
	}
	// Unicode passes through unescaped.
	if EncodeToken("héllo") != "héllo" {
		t.Errorf("unicode should pass through, got %q", EncodeToken("héllo"))
	}
	// Malformed escapes decode verbatim (legacy files).
	if DecodeToken("%zz") != "%zz" || DecodeToken("50%") != "50%" {
		t.Error("malformed escapes must decode verbatim")
	}
}

// sixEdgeQuery is a query text of the size a request carries: six edges,
// about a hundred bytes.
const sixEdgeQuery = "g q6\nv 0 C3\nv 1 C5\nv 2 C2\nv 3 C1\nv 4 C0\nv 5 C4\ne 1 3 -\ne 0 4 -\ne 2 4 -\ne 2 3 -\ne 0 5 -\ne 1 5 -\nend\n"

// wrappedIDs names its edge's endpoints by numbers outside int32 that a
// conversion without a range check wraps to the valid ids 0 and 1.
const wrappedIDs = "g q\nv 0 A\nv 1 B\ne 4294967296 4294967297 x\nend\n"

// bytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeQuerySteadyStateBytes pins what parsing a request's query
// graph allocates: the scanner starts small, so a hundred-byte text costs
// a few KiB, not a 64 KiB buffer per parse.
func TestDecodeQuerySteadyStateBytes(t *testing.T) {
	g, err := NewDecoder(strings.NewReader(sixEdgeQuery)).Decode()
	if err != nil || g.NumEdges() != 6 {
		t.Fatalf("query text: %v, %v", g, err)
	}
	n := bytesPerRun(200, func() {
		if _, err := NewDecoder(strings.NewReader(sixEdgeQuery)).Decode(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d B per decode", n)
	if n > 4<<10 {
		t.Errorf("decoding the %d-byte six-edge query allocates %d B, want <= 4 KiB", len(sixEdgeQuery), n)
	}
}

// TestDecodeLineCap: the scanner grows past its start for a long line, up
// to maxLine; a longer line fails with bufio.ErrTooLong.
func TestDecodeLineCap(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	g, err := NewDecoder(strings.NewReader("g q\nv 0 " + long + "\nv 1 A\ne 0 1 " + long + "\nend\n")).Decode()
	if err != nil {
		t.Fatalf("100 KiB label: %v", err)
	}
	if string(g.VertexLabel(0)) != long || string(g.EdgeLabel(0)) != long {
		t.Fatal("100 KiB label did not survive the decode")
	}
	_, err = NewDecoder(strings.NewReader("g " + strings.Repeat("x", maxLine) + "\nend\n")).Decode()
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("line over %d bytes: %v, want bufio.ErrTooLong", maxLine, err)
	}
}

// BenchmarkDecodeQuery times the parse of a request's query text.
func BenchmarkDecodeQuery(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := NewDecoder(strings.NewReader(sixEdgeQuery)).Decode(); err != nil {
			b.Fatal(err)
		}
	}
}
