// Package server is the HTTP/JSON query service: one handler set
// (Server) answering T-PS queries over a Backend — a resident indexed
// database (New: pgserve, with its LRU result cache, inflight bound and
// mutation routes) or a fleet of range shards (NewOver with the
// internal/cluster backend: pgproxy).
//
// It is also the single owner of the service's wire format, which the
// fleet backend (internal/cluster), pgsearch -server and both server
// mains call rather than restate: the request and response types, the
// one failure body (Error), the request prologue (Accept and the Check
// methods), the NDJSON reader and writer (ReadStream, StreamWriter), the
// HTTP client (Client), and the process loop (Serve).
package server

import (
	"fmt"
	"strings"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// datasetDecode parses one dataset pgraph block (certain graph + JPTs).
func datasetDecode(text string) (*prob.PGraph, int, error) {
	return dataset.NewPGraphDecoder(strings.NewReader(text)).Decode()
}

// GraphJSON is the wire form of a labeled graph; with JPTs attached it
// describes a probabilistic graph (the /graphs ingestion payload).
type GraphJSON struct {
	Name     string     `json:"name,omitempty"`
	Vertices []string   `json:"vertices"`
	Edges    []EdgeJSON `json:"edges"`
	JPTs     []JPTJSON  `json:"jpts,omitempty"`
}

// EdgeJSON is one undirected edge between vertex indices.
type EdgeJSON struct {
	U     int    `json:"u"`
	V     int    `json:"v"`
	Label string `json:"label,omitempty"`
}

// JPTJSON is a joint probability table over a neighbor-edge set: P has
// 2^len(Edges) rows, row m assigning edge i the value of bit i of m.
type JPTJSON struct {
	Edges []int     `json:"edges"`
	P     []float64 `json:"p"`
}

// GraphFromJSON builds the certain graph described by gj (JPTs ignored).
func GraphFromJSON(gj *GraphJSON) (*graph.Graph, error) {
	b := graph.NewBuilder(gj.Name)
	for _, l := range gj.Vertices {
		b.AddVertex(graph.Label(l))
	}
	for i, e := range gj.Edges {
		if e.U < 0 || e.U >= len(gj.Vertices) || e.V < 0 || e.V >= len(gj.Vertices) {
			return nil, fmt.Errorf("edge %d: endpoint out of range", i)
		}
		if _, err := b.AddEdge(graph.VertexID(e.U), graph.VertexID(e.V), graph.Label(e.Label)); err != nil {
			return nil, fmt.Errorf("edge %d: %v", i, err)
		}
	}
	return b.Build(), nil
}

// PGraphFromJSON builds the probabilistic graph described by gj. Edges not
// covered by any JPT are certain.
func PGraphFromJSON(gj *GraphJSON) (*prob.PGraph, error) {
	g, err := GraphFromJSON(gj)
	if err != nil {
		return nil, err
	}
	jpts := make([]prob.JPT, 0, len(gj.JPTs))
	for ji, j := range gj.JPTs {
		jpt := prob.JPT{P: append([]float64(nil), j.P...)}
		for _, e := range j.Edges {
			if e < 0 || e >= g.NumEdges() {
				return nil, fmt.Errorf("jpt %d: edge id %d out of range", ji, e)
			}
			jpt.Edges = append(jpt.Edges, graph.EdgeID(e))
		}
		jpts = append(jpts, jpt)
	}
	return prob.New(g, jpts)
}

// GraphToJSON renders g on the wire form.
func GraphToJSON(g *graph.Graph) *GraphJSON {
	gj := &GraphJSON{Name: g.Name(), Vertices: make([]string, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		gj.Vertices[v] = string(g.VertexLabel(graph.VertexID(v)))
	}
	for _, e := range g.Edges() {
		gj.Edges = append(gj.Edges, EdgeJSON{U: int(e.U), V: int(e.V), Label: string(e.Label)})
	}
	return gj
}

// parseGraphPayload resolves the two ways a request can carry a query
// graph: structured JSON (graph) or the text codec (graph_text, the format
// written by pggen -query / probgraph.SaveGraph).
func parseGraphPayload(gj *GraphJSON, text string) (*graph.Graph, error) {
	switch {
	case gj != nil && text != "":
		return nil, fmt.Errorf("give either graph or graph_text, not both")
	case gj != nil:
		return GraphFromJSON(gj)
	case text != "":
		g, err := graph.NewDecoder(strings.NewReader(text)).Decode()
		if err != nil {
			return nil, fmt.Errorf("graph_text: %v", err)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("missing query graph (graph or graph_text)")
	}
}

// parsePGraphPayload is parseGraphPayload for probabilistic graphs: the
// text form is a dataset pgraph block.
func parsePGraphPayload(gj *GraphJSON, text string) (*prob.PGraph, error) {
	switch {
	case gj != nil && text != "":
		return nil, fmt.Errorf("give either graph or graph_text, not both")
	case gj != nil:
		return PGraphFromJSON(gj)
	case text != "":
		pg, _, err := datasetDecode(text)
		return pg, err
	default:
		return nil, fmt.Errorf("missing graph (graph or graph_text)")
	}
}
