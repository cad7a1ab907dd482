package dataset

import (
	"fmt"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
	"probgraph/internal/snapbin"
)

// A snapshot pgraph record carries what a text block of codec.go carries —
// the certain graph, the organism tag, and the JPT factors — as fields of
// the snapshot token stream, so probabilities round-trip bitwise in either
// snapshot encoding.

// EncodePGraphSnap appends one probabilistic graph to a snapshot section.
func EncodePGraphSnap(s snapbin.Encoder, pg *prob.PGraph, organism int) {
	graph.EncodeSnap(s, pg.G)
	s.U32(uint32(int32(organism)))
	s.U32(uint32(len(pg.JPTs)))
	for _, j := range pg.JPTs {
		s.U32(uint32(len(j.Edges)))
		for _, e := range j.Edges {
			s.U32(uint32(e))
		}
		for _, p := range j.P {
			s.F64(p)
		}
	}
}

// DecodePGraphSnap reads one pgraph record and assembles it via prob.New,
// which applies the same validation as the dataset file decoder. The JPT
// probability tables are copied out of the section (they are small, and
// prob.JPT.Normalize mutates in place — tables must never alias a
// read-only mapping).
func DecodePGraphSnap(c snapbin.Decoder) (*prob.PGraph, int, error) {
	g, err := graph.DecodeSnap(c)
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot pgraph: %w", err)
	}
	organism := int(int32(c.U32()))
	nj := c.Int()
	var jpts []prob.JPT
	for i := 0; i < nj; i++ {
		k := c.Int()
		if c.Err() != nil {
			return nil, 0, c.Err()
		}
		if k <= 0 || k > prob.MaxJPTEdges {
			return nil, 0, fmt.Errorf("dataset: snapshot pgraph: JPT %d arity %d out of range [1,%d]", i, k, prob.MaxJPTEdges)
		}
		j := prob.JPT{Edges: make([]graph.EdgeID, k), P: make([]float64, 1<<k)}
		for e := range j.Edges {
			j.Edges[e] = graph.EdgeID(c.Int())
		}
		for p := range j.P {
			j.P[p] = c.F64()
		}
		if c.Err() != nil {
			return nil, 0, c.Err()
		}
		jpts = append(jpts, j)
	}
	if c.Err() != nil {
		return nil, 0, c.Err()
	}
	pg, err := prob.New(g, jpts)
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: snapshot pgraph: %w", err)
	}
	return pg, organism, nil
}
