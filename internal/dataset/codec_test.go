package dataset

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// buildLabeled assembles a one-JPT pgraph over the given vertex labels with
// an edge (with edge label elabel) between each consecutive pair.
func buildLabeled(t *testing.T, name string, vlabels []string, elabel string) *prob.PGraph {
	t.Helper()
	b := graph.NewBuilder(name)
	for _, l := range vlabels {
		b.AddVertex(graph.Label(l))
	}
	for i := 1; i < len(vlabels); i++ {
		b.MustAddEdge(graph.VertexID(i-1), graph.VertexID(i), graph.Label(elabel))
	}
	g := b.Build()
	probs := map[graph.EdgeID]float64{}
	for e := 0; e < g.NumEdges(); e++ {
		probs[graph.EdgeID(e)] = 0.25 + 0.5*float64(e)/float64(g.NumEdges()+1)
	}
	pg, err := prob.NewIndependent(g, probs)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// TestRoundTripHostileLabels exercises the token escaping: labels and names with
// spaces, '#', '%', a literal '-', tabs, and multi-byte unicode must
// round-trip byte-for-byte through Save/Load.
func TestRoundTripHostileLabels(t *testing.T) {
	hostile := [][2][]string{
		// {vertex labels...}, {name, edge label}
		{{"alpha beta", "x  y"}, {"name with spaces", "edge label"}},
		{{"#comment", "a#b"}, {"#lead", "#"}},
		{{"100%", "%2D", "%"}, {"50% off", "%%"}},
		{{"-", "--", "a-b"}, {"-", "-"}},
		{{"héllo", "世界", "γ≤δ"}, {"próba-gráf", "→"}},
		{{"tab\there", "mix #% -"}, {"\ttabs\t", "sp ace"}},
	}
	db := &DB{}
	for i, h := range hostile {
		db.Graphs = append(db.Graphs, buildLabeled(t, h[1][0], h[0], h[1][1]))
		db.Organism = append(db.Organism, i%3)
	}

	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v\nfile:\n%s", err, buf.String())
	}
	if len(got.Graphs) != len(db.Graphs) {
		t.Fatalf("got %d graphs, want %d", len(got.Graphs), len(db.Graphs))
	}
	for gi, pg := range db.Graphs {
		rg := got.Graphs[gi]
		if rg.G.Name() != pg.G.Name() {
			t.Errorf("graph %d: name %q != %q", gi, rg.G.Name(), pg.G.Name())
		}
		if got.Organism[gi] != db.Organism[gi] {
			t.Errorf("graph %d: organism %d != %d", gi, got.Organism[gi], db.Organism[gi])
		}
		if rg.G.NumVertices() != pg.G.NumVertices() || rg.G.NumEdges() != pg.G.NumEdges() {
			t.Fatalf("graph %d: shape mismatch", gi)
		}
		for v := 0; v < pg.G.NumVertices(); v++ {
			if rg.G.VertexLabel(graph.VertexID(v)) != pg.G.VertexLabel(graph.VertexID(v)) {
				t.Errorf("graph %d vertex %d: label %q != %q",
					gi, v, rg.G.VertexLabel(graph.VertexID(v)), pg.G.VertexLabel(graph.VertexID(v)))
			}
		}
		for ei, e := range pg.G.Edges() {
			re := rg.G.Edges()[ei]
			if re.U != e.U || re.V != e.V || re.Label != e.Label {
				t.Errorf("graph %d edge %d: %v != %v", gi, ei, re, e)
			}
		}
		if len(rg.JPTs) != len(pg.JPTs) {
			t.Fatalf("graph %d: %d JPTs != %d", gi, len(rg.JPTs), len(pg.JPTs))
		}
		for ji, j := range pg.JPTs {
			rj := rg.JPTs[ji]
			for k, p := range j.P {
				if rj.P[k] != p {
					t.Errorf("graph %d jpt %d row %d: %v != %v (not bitwise)", gi, ji, k, rj.P[k], p)
				}
			}
		}
	}
	// The serialized file must not contain a raw token that Fields would
	// split: every v/e line has a fixed field count.
	for ln, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "v":
			if len(f) != 3 {
				t.Errorf("line %d: vertex line split into %d fields: %q", ln+1, len(f), line)
			}
		case "e":
			if len(f) != 4 {
				t.Errorf("line %d: edge line split into %d fields: %q", ln+1, len(f), line)
			}
		}
	}
}

// TestDecodeRejectsMalformedBlocks: a block the decoder cannot read
// faithfully is an error naming its line, never a silently different
// graph. Vertex ids follow the graph codec's rule — dense and in order —
// since the decoder places each vertex by its position, not its id.
func TestDecodeRejectsMalformedBlocks(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"vertices out of order", "pgraph g\nv 1 B\nv 0 A\nend\n", "line 2: vertex ids must be dense and ordered, got 1 want 0"},
		{"vertex id gap", "pgraph g\nv 0 A\nv 2 B\nend\n", "line 3: vertex ids must be dense and ordered, got 2 want 1"},
		{"vertex id not a number", "pgraph g\nv x A\nend\n", `line 2: bad vertex id "x"`},
		{"vertex outside a block", "v 0 A\n", `line 1: "v" line outside a graph block`},
		{"stray end", "end\n", `line 1: "end" line outside a graph block`},
		{"unterminated block", "pgraph g\nv 0 A\n", "unterminated pgraph block"},
		{"jpt edge id outside int32", wrappedJPTEdge, `line 5: bad edge id "4294967296"`},
		{"header with extra fields", "pgraph a 3 junk more\nv 0 A\nend\n", "line 1: want 'pgraph <name> [<organism>]'"},
	}
	for _, c := range cases {
		_, _, err := NewPGraphDecoder(strings.NewReader(c.text)).Decode()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// Ids restart at 0 in every block.
	two := "pgraph a\nv 0 A\nv 1 B\ne 0 1 x\nend\npgraph b\nv 0 C\nend\n"
	db, err := Load(strings.NewReader(two))
	if err != nil || len(db.Graphs) != 2 || db.Graphs[1].G.VertexLabel(0) != "C" {
		t.Fatalf("two dense blocks: %v", err)
	}
}

// TestDecodersReadIntegersStrictly: a vertex id or edge endpoint with
// trailing junk is an error in both text decoders — the query-graph codec
// and the dataset codec — never the number its leading digits spell, and
// so is an endpoint outside int32, never the id its conversion wraps to.
func TestDecodersReadIntegersStrictly(t *testing.T) {
	for _, row := range []string{"v 1junk B", "e 0x1 2 x", "e 1.9 2 x", "e 1 2x x", "e 4294967296 4294967297 x"} {
		body := "v 0 A\n" + row + "\n"
		if row[0] == 'e' {
			body = "v 0 A\nv 1 B\nv 2 C\n" + row + "\n"
		}
		if _, err := graph.NewDecoder(strings.NewReader("g q\n" + body + "end\n")).Decode(); err == nil {
			t.Errorf("graph.Decoder accepted %q", row)
		}
		if _, _, err := NewPGraphDecoder(strings.NewReader("pgraph q\n" + body + "end\n")).Decode(); err == nil {
			t.Errorf("PGraphDecoder accepted %q", row)
		}
	}
}

// TestEncodePGraphWriteErrors: a write that fails anywhere in a block, JPT
// rows included, is EncodePGraph's error, never a nil return after a cut
// block.
func TestEncodePGraphWriteErrors(t *testing.T) {
	pg, _, err := NewPGraphDecoder(strings.NewReader(sixEdgeBlock)).Decode()
	if err != nil {
		t.Fatal(err)
	}
	all := &failingWriter{fail: -1}
	if err := EncodePGraph(all, pg, 0); err != nil {
		t.Fatal(err)
	}
	for i := range all.writes {
		if err := EncodePGraph(&failingWriter{fail: i}, pg, 0); err == nil {
			t.Errorf("write %d of %d failed, EncodePGraph returned nil", i, all.writes)
		}
	}
}

// failingWriter counts its writes and fails the one numbered fail.
type failingWriter struct{ writes, fail int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes-1 == w.fail {
		return 0, errors.New("write failed")
	}
	return len(p), nil
}

// TestFormatsAgree: a query block and the same block read as a pgraph
// block, header rewritten, decode to the same certain graph, or are both
// rejected at the same line. It runs over FuzzDecodeGraph's seeds and
// malformed blocks.
func TestFormatsAgree(t *testing.T) {
	texts := append(slices.Clone(graphSeeds),
		"g q\nv 1 B\nv 0 A\nend\n",                   // vertex ids out of order
		"g q\nv 0 A\nv 2 B\nend\n",                   // vertex id gap
		"g q\nv 0 A\nfrob 1 2\nend\n",                // unknown directive
		"g q\nv 0 A\ng r\nv 0 B\nend\n",              // nested header
		"g q\nv 0 A\n",                               // unterminated block
		"end\n",                                      // stray end
		"g q\nv 0 A\nend\nend\n",                     // stray end after a block
		"v 0 A\n",                                    // vertex outside a block
		"g\nend\n",                                   // header without a name
		"g q r\nend\n",                               // header with a bad argument
		"g q 3 junk\nend\n",                          // header with extra arguments
		"g q\nv 0 A\ne 0 1 x\nend\n",                 // endpoint names no vertex
		"g q\nv 0 A\nv 1 B\ne 0 x x\nend\n",          // endpoint not a number
		"g q\nv 0 A\nv 1 B\ne 0 1\nend\n",            // edge line without a label
		"g q\nv 0 A\nv 1 B\ne 0 1 x\ne 1 0 y\nend\n", // duplicate edge
		"# head\n\n  g  q \n v 0 A\nv 1 %2D\ne 1 0 -\nend\n# tail\n",
	)
	lineOf := regexp.MustCompile(`line \d+:`)
	for _, text := range texts {
		gd := graph.NewDecoder(strings.NewReader(text))
		pd := NewPGraphDecoder(strings.NewReader(asPGraph(text)))
		for {
			g, gerr := gd.Decode()
			pg, org, perr := pd.Decode()
			if gerr != nil || perr != nil {
				if gerr == nil || perr == nil || (gerr == io.EOF) != (perr == io.EOF) ||
					lineOf.FindString(gerr.Error()) != lineOf.FindString(perr.Error()) {
					t.Errorf("%q: query format says %v, pgraph format %v", text, gerr, perr)
				}
				break
			}
			if !samePGraph(&prob.PGraph{G: g}, pg) || org != 0 {
				t.Errorf("%q: the formats decode different graphs", text)
			}
		}
	}
}

// TestGeneratedRoundTripExact checks that a generated database round-trips
// with bitwise-identical probabilities (the %g shortest-representation
// guarantee).
func TestGeneratedRoundTripExact(t *testing.T) {
	db, err := GeneratePPI(PPIOptions{NumGraphs: 6, MinVertices: 5, MaxVertices: 7, Seed: 42, Correlated: true})
	if err != nil {
		t.Fatal(err)
	}
	// Make probabilities adversarial: full-precision random float64s.
	rng := rand.New(rand.NewSource(7))
	for _, pg := range db.Graphs {
		for ji := range pg.JPTs {
			for k := range pg.JPTs[ji].P {
				pg.JPTs[ji].P[k] = rng.Float64()
			}
			pg.JPTs[ji].Normalize()
		}
	}
	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for gi, pg := range db.Graphs {
		for ji, j := range pg.JPTs {
			for k, p := range j.P {
				if got.Graphs[gi].JPTs[ji].P[k] != p {
					t.Fatalf("graph %d jpt %d row %d: %v != %v", gi, ji, k, got.Graphs[gi].JPTs[ji].P[k], p)
				}
			}
		}
	}
}

// TestEncDecTok checks the token escaping that pgraph blocks write names
// and labels through, including the empty-vs-dash distinction.
func TestEncDecTok(t *testing.T) {
	cases := []string{"", "-", "%2D", "a b", "#", "%", "% ", "héllo 世界", "plain", "C0"}
	for _, s := range cases {
		enc := graph.EncodeToken(s)
		if strings.ContainsAny(enc, " \t\r\n") {
			t.Errorf("EncodeToken(%q) = %q contains whitespace", s, enc)
		}
		if strings.HasPrefix(enc, "#") {
			t.Errorf("EncodeToken(%q) = %q starts a comment", s, enc)
		}
		if got := graph.DecodeToken(enc); got != s {
			t.Errorf("DecodeToken(EncodeToken(%q)) = %q", s, got)
		}
	}
	// Legacy compatibility: plain tokens decode to themselves and "-" to "".
	if graph.DecodeToken("-") != "" || graph.DecodeToken("C0") != "C0" {
		t.Error("legacy token decoding broken")
	}
}

// TestDecodeLongToken: a line far longer than the scanner's start buffer
// decodes; the buffer grows to fit it.
func TestDecodeLongToken(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	pg, _, err := NewPGraphDecoder(strings.NewReader("pgraph " + long + "\nv 0 " + long + "\nv 1 A\ne 0 1 x\njpt 1 0\np 0.5 0.5\nend\n")).Decode()
	if err != nil {
		t.Fatalf("100 KiB tokens: %v", err)
	}
	if pg.G.Name() != long || string(pg.G.VertexLabel(0)) != long {
		t.Fatal("100 KiB tokens did not survive the decode")
	}
}

// TestDecodePGraphSteadyStateBytes pins what parsing a POST /graphs
// payload allocates: a six-edge block with one JPT costs a few KiB, not a
// 64 KiB scanner buffer per parse.
func TestDecodePGraphSteadyStateBytes(t *testing.T) {
	const text = "pgraph g6 0\nv 0 C3\nv 1 C5\nv 2 C2\nv 3 C1\nv 4 C0\nv 5 C4\ne 1 3 -\ne 0 4 -\ne 2 4 -\ne 2 3 -\ne 0 5 -\ne 1 5 -\njpt 2 0 1\np 0.1 0.2 0.3 0.4\nend\n"
	decode := func() {
		if _, _, err := NewPGraphDecoder(strings.NewReader(text)).Decode(); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 200
	for range runs {
		decode()
	}
	runtime.ReadMemStats(&after)
	n := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d B per decode", n)
	if n > 4<<10 {
		t.Errorf("decoding a six-edge pgraph block allocates %d B, want <= 4 KiB", n)
	}
}

// sixEdgeBlock is the block TestDecodePGraphSteadyStateBytes parses: a
// POST /graphs payload of six edges and one JPT.
const sixEdgeBlock = "pgraph g6 0\nv 0 C3\nv 1 C5\nv 2 C2\nv 3 C1\nv 4 C0\nv 5 C4\ne 1 3 -\ne 0 4 -\ne 2 4 -\ne 2 3 -\ne 0 5 -\ne 1 5 -\njpt 2 0 1\np 0.1 0.2 0.3 0.4\nend\n"

// BenchmarkDecodePGraph times the parse of a POST /graphs payload.
func BenchmarkDecodePGraph(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := NewPGraphDecoder(strings.NewReader(sixEdgeBlock)).Decode(); err != nil {
			b.Fatal(err)
		}
	}
}
