package dataset

import (
	"bytes"
	"math"
	"slices"
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
