package graph

import (
	"fmt"

	"probgraph/internal/snapbin"
)

// A snapshot graph record is name, vertex labels, and edges as structured
// fields of the snapshot token stream (the line codec in codec.go is the
// dataset and query file format, not this). Decoding goes through the
// Builder, so the same structural validation (endpoint range, self loops,
// duplicate edges) applies to both.

// EncodeSnap appends g's record to a snapshot section.
func EncodeSnap(s snapbin.Encoder, g *Graph) {
	s.Str(g.name)
	s.U32(uint32(len(g.vlabel)))
	for _, h := range g.vlabel {
		s.Str(string(h.Value()))
	}
	s.U32(uint32(len(g.edges)))
	for _, e := range g.edges {
		s.U32(uint32(e.U))
		s.U32(uint32(e.V))
		s.Str(string(e.label.Value()))
	}
}

// DecodeSnap reads one graph record. Corrupt input returns an error;
// allocation is bounded by the input actually present (each declared
// vertex or edge must be backed by data, so a lying count runs out of
// section before it runs out of memory).
func DecodeSnap(c snapbin.Decoder) (*Graph, error) {
	name := c.Str()
	nv := c.Int()
	b := NewBuilder(name)
	for i := 0; i < nv; i++ {
		l := c.Str()
		if c.Err() != nil {
			return nil, c.Err()
		}
		b.AddVertex(Label(l))
	}
	ne := c.Int()
	for i := 0; i < ne; i++ {
		u := c.Int()
		v := c.Int()
		l := c.Str()
		if c.Err() != nil {
			return nil, c.Err()
		}
		if _, err := b.AddEdge(VertexID(u), VertexID(v), Label(l)); err != nil {
			return nil, fmt.Errorf("graph: snapshot record: %w", err)
		}
	}
	if c.Err() != nil {
		return nil, c.Err()
	}
	return b.Build(), nil
}
