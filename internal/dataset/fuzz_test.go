package dataset

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// FuzzDecodePGraph holds the dataset codec, which parses every POST /graphs
// payload, to its contract on arbitrary bytes: each Decode gives a pgraph or
// an error, never a panic, and a decoded pgraph the engine accepts survives
// EncodePGraph and Decode unchanged, probabilities bitwise.
func FuzzDecodePGraph(f *testing.F) {
	db, err := GeneratePPI(PPIOptions{NumGraphs: 2, MinVertices: 5, MaxVertices: 7, Seed: 42, Correlated: true})
	if err != nil {
		f.Fatal(err)
	}
	var two bytes.Buffer
	if err := Save(&two, db); err != nil {
		f.Fatal(err)
	}
	f.Add(two.Bytes())
	f.Add([]byte("pgraph one 3\nv 0 A\nv 1 B\nv 2 C\ne 0 1 x\ne 1 2 y\njpt 2 0 1\np 0.1 0.2 0.3 0.4\nend\n"))
	for _, s := range graphSeeds {
		f.Add([]byte(asPGraph(s)))
	}
	f.Add([]byte(wrappedJPTEdge))
	f.Add([]byte("pgraph a 3 junk more\nv 0 A\nend\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		dec := NewPGraphDecoder(bytes.NewReader(in))
		for {
			pg, org, err := dec.Decode()
			if err != nil {
				return
			}
			if _, err := prob.NewEngine(pg); err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := EncodePGraph(&buf, pg, org); err != nil {
				t.Fatal(err)
			}
			back, borg, err := NewPGraphDecoder(&buf).Decode()
			if err != nil {
				t.Fatalf("re-decoding %q: %v", buf.String(), err)
			}
			if borg != org || !samePGraph(pg, back) {
				t.Fatalf("round trip changed the pgraph:\n%s", buf.String())
			}
		}
	})
}

// graphSeeds are the seeds of internal/graph's FuzzDecodeGraph, query
// blocks that TestFormatsAgree also reads as pgraph blocks. The last one
// names its edge's endpoints by numbers outside int32 that a conversion
// without a range check wraps to the valid ids 0 and 1.
var graphSeeds = []string{
	"g q6\nv 0 C3\nv 1 C5\nv 2 C2\nv 3 C1\nv 4 C0\nv 5 C4\ne 1 3 -\ne 0 4 -\ne 2 4 -\ne 2 3 -\ne 0 5 -\ne 1 5 -\nend\n",
	"g a\nv 0 A\nv 1 B\ne 0 1 x\nend\ng b\nv 0 C\nend\n",
	"g long\nv 0 " + strings.Repeat("x", 8<<10) + "\nend\n",
	"g q\nv 0 A\nv 1 B\ne 4294967296 4294967297 x\nend\n",
}

// wrappedJPTEdge is a pgraph block whose JPT names an edge by a number
// outside int32 that wraps to the valid edge id 0.
const wrappedJPTEdge = "pgraph q\nv 0 A\nv 1 B\ne 0 1 x\njpt 1 4294967296\np 0.5 0.5\nend\n"

// asPGraph rewrites each "g" header of a query-format text as a "pgraph"
// header, line for line.
func asPGraph(text string) string {
	lines := strings.SplitAfter(text, "\n")
	for i, l := range lines {
		if f := strings.Fields(l); len(f) > 0 && f[0] == "g" {
			lines[i] = strings.Replace(l, "g", "pgraph", 1)
		}
	}
	return strings.Join(lines, "")
}

// samePGraph reports whether a and b have the same name, vertex labels,
// edges and JPTs, in the same order, with bitwise-equal probabilities.
func samePGraph(a, b *prob.PGraph) bool {
	if a.G.Name() != b.G.Name() || a.G.NumVertices() != b.G.NumVertices() ||
		!slices.Equal(a.G.Edges(), b.G.Edges()) || len(a.JPTs) != len(b.JPTs) {
		return false
	}
	for v := range a.G.NumVertices() {
		if a.G.VertexLabel(graph.VertexID(v)) != b.G.VertexLabel(graph.VertexID(v)) {
			return false
		}
	}
	sameBits := func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }
	for i, j := range a.JPTs {
		if !slices.Equal(j.Edges, b.JPTs[i].Edges) || !slices.EqualFunc(j.P, b.JPTs[i].P, sameBits) {
			return false
		}
	}
	return true
}
