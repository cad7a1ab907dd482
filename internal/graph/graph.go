// Package graph provides labeled undirected graphs: the deterministic
// substrate underneath every component of the probabilistic subgraph
// similarity search system (queries, features, certain graphs gc, relaxed
// queries, possible worlds).
//
// Graphs are simple (no self loops, no parallel edges), vertex- and
// edge-labeled, and immutable once built. Vertices and edges are addressed
// by dense integer IDs so that higher layers can use bitsets and slices
// rather than maps in their inner loops.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// VertexID identifies a vertex within a single Graph. IDs are dense:
// 0..NumVertices()-1.
type VertexID int32

// EdgeID identifies an edge within a single Graph. IDs are dense:
// 0..NumEdges()-1.
type EdgeID int32

// Label is a vertex or edge label. The empty label is valid and acts as a
// wildcard-free ordinary label (it only matches itself).
type Label string

// Edge is an undirected labeled edge between U and V. Invariant: U < V.
type Edge struct {
	U, V  VertexID
	Label Label
}

// Other returns the endpoint of e opposite to v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v VertexID) VertexID {
	switch v {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", v, e))
}

// HalfEdge is one direction of an undirected edge as seen from a vertex's
// adjacency list.
type HalfEdge struct {
	To   VertexID
	Edge EdgeID
}

// Graph is an immutable labeled undirected graph.
type Graph struct {
	name   string
	vlabel []Label
	edges  []Edge
	adj    [][]HalfEdge
	// vcount is the vertex-label multiset, ecount the edge-label multiset
	// and etypes the edge-type multiset, all counted once by Build. vidx
	// and eidx give each vertex's and each edge's label as its index in
	// vcount and ecount, so a search compares labels as integers.
	vcount, ecount LabelCounts
	etypes         EdgeTypes
	vidx, eidx     []int32
}

// LabelCounts is a multiset of labels: one entry per distinct label,
// ascending. A few dozen bytes where a map costs several hundred, which
// matters because every graph of a database carries one.
type LabelCounts []LabelCount

// LabelCount is one entry of a LabelCounts.
type LabelCount struct {
	Label Label
	N     int
}

// multiset sorts keys in place and returns one entry per distinct key,
// ascending, made by entry from the key and its count.
func multiset[K cmp.Ordered, E any](keys []K, entry func(K, int) E) []E {
	slices.Sort(keys)
	distinct := 0
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			distinct++
		}
	}
	out := make([]E, 0, distinct)
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j] == keys[i] {
			j++
		}
		out = append(out, entry(keys[i], j-i))
		i = j
	}
	return out
}

// Index returns the position of l's entry in c, or -1 when l does not
// occur.
func (c LabelCounts) Index(l Label) int32 {
	if i, ok := slices.BinarySearchFunc(c, l, func(e LabelCount, l Label) int { return cmp.Compare(e.Label, l) }); ok {
		return int32(i)
	}
	return -1
}

// Covers reports whether every label of need occurs in c at least as often.
func (c LabelCounts) Covers(need LabelCounts) bool {
	for _, n := range need {
		for len(c) > 0 && c[0].Label < n.Label {
			c = c[1:]
		}
		if len(c) == 0 || c[0].Label != n.Label || c[0].N < n.N {
			return false
		}
	}
	return true
}

// EdgeTypes is a multiset of edge types: one entry per distinct type key,
// ascending. An edge's type is its label and its endpoints' labels,
// unordered; a key is a 64-bit hash of the type, so two types may share
// one, and then their counts add up.
type EdgeTypes []EdgeType

// EdgeType is one entry of an EdgeTypes.
type EdgeType struct {
	Key uint64
	N   int32
}

// edgeTypeKey hashes the type of an edge labelled l between vertices
// labelled a and b: FNV-1a over the three labels, each ended by its length
// so no two label triples read as the same bytes, with a and b in order.
func edgeTypeKey(l, a, b Label) uint64 {
	if a > b {
		a, b = b, a
	}
	h := uint64(14695981039346656037)
	for _, s := range [3]Label{l, a, b} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		h = (h ^ uint64(len(s))) * 1099511628211
	}
	return h
}

// Deficit returns how many of c's edges find no edge of their own type in
// t, Σ max(0, c(τ) − t(τ)) over types τ, or stops counting once that
// exceeds limit and returns limit + 1.
func (c EdgeTypes) Deficit(t EdgeTypes, limit int) int {
	d := 0
	for _, need := range c {
		for len(t) > 0 && t[0].Key < need.Key {
			t = t[1:]
		}
		have := int32(0)
		if len(t) > 0 && t[0].Key == need.Key {
			have = t[0].N
		}
		if d += int(max(0, need.N-have)); d > limit {
			return limit + 1
		}
	}
	return d
}

// Builder incrementally assembles a Graph. The zero value is ready to use.
type Builder struct {
	name   string
	vlabel []Label
	edges  []Edge
	seen   map[[2]VertexID]bool
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, seen: make(map[[2]VertexID]bool)}
}

// AddVertex appends a vertex with the given label and returns its ID.
func (b *Builder) AddVertex(l Label) VertexID {
	b.vlabel = append(b.vlabel, l)
	return VertexID(len(b.vlabel) - 1)
}

// AddVertices appends n vertices all carrying label l and returns the ID of
// the first one.
func (b *Builder) AddVertices(n int, l Label) VertexID {
	first := VertexID(len(b.vlabel))
	for i := 0; i < n; i++ {
		b.vlabel = append(b.vlabel, l)
	}
	return first
}

// AddEdge appends an undirected edge {u,v} with label l and returns its ID.
// It returns an error for self loops, out-of-range endpoints, or duplicate
// edges.
func (b *Builder) AddEdge(u, v VertexID, l Label) (EdgeID, error) {
	if u == v {
		return 0, fmt.Errorf("graph %q: self loop on vertex %d", b.name, u)
	}
	n := VertexID(len(b.vlabel))
	if u < 0 || u >= n || v < 0 || v >= n {
		return 0, fmt.Errorf("graph %q: edge {%d,%d} references missing vertex (have %d vertices)", b.name, u, v, n)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]VertexID{u, v}
	if b.seen == nil {
		b.seen = make(map[[2]VertexID]bool)
	}
	if b.seen[key] {
		return 0, fmt.Errorf("graph %q: duplicate edge {%d,%d}", b.name, u, v)
	}
	b.seen[key] = true
	b.edges = append(b.edges, Edge{U: u, V: v, Label: l})
	return EdgeID(len(b.edges) - 1), nil
}

// MustAddEdge is AddEdge for static construction in tests and examples; it
// panics on error.
func (b *Builder) MustAddEdge(u, v VertexID, l Label) EdgeID {
	id, err := b.AddEdge(u, v, l)
	if err != nil {
		panic(err)
	}
	return id
}

// Build finalizes the graph. The Builder must not be reused afterwards.
func (b *Builder) Build() *Graph {
	count := func(l Label, n int) LabelCount { return LabelCount{l, n} }
	elabels := make([]Label, len(b.edges))
	for i, e := range b.edges {
		elabels[i] = e.Label
	}
	g := &Graph{
		name:   b.name,
		vlabel: b.vlabel,
		edges:  b.edges,
		adj:    make([][]HalfEdge, len(b.vlabel)),
		vcount: multiset(slices.Clone(b.vlabel), count),
		ecount: multiset(elabels, count),
		vidx:   make([]int32, len(b.vlabel)),
		eidx:   make([]int32, len(b.edges)),
	}
	for v, l := range b.vlabel {
		g.vidx[v] = g.vcount.Index(l)
	}
	keys := make([]uint64, len(b.edges))
	deg := make([]int, len(b.vlabel))
	for i, e := range b.edges {
		deg[e.U]++
		deg[e.V]++
		keys[i] = edgeTypeKey(e.Label, b.vlabel[e.U], b.vlabel[e.V])
		g.eidx[i] = g.ecount.Index(e.Label)
	}
	g.etypes = multiset(keys, func(k uint64, n int) EdgeType { return EdgeType{k, int32(n)} })
	for v := range g.adj {
		if deg[v] > 0 {
			g.adj[v] = make([]HalfEdge, 0, deg[v])
		}
	}
	for id, e := range b.edges {
		g.adj[e.U] = append(g.adj[e.U], HalfEdge{To: e.V, Edge: EdgeID(id)})
		g.adj[e.V] = append(g.adj[e.V], HalfEdge{To: e.U, Edge: EdgeID(id)})
	}
	return g
}

// Empty is the graph without vertices. A tombstoned database slot points
// at it once the removed graph's data is released.
var Empty = NewBuilder("").Build()

// Name returns the graph's name (may be empty).
func (g *Graph) Name() string { return g.name }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.vlabel) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// VertexLabel returns the label of vertex v.
func (g *Graph) VertexLabel(v VertexID) Label { return g.vlabel[v] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// EdgeLabel returns the label of the edge with the given ID.
func (g *Graph) EdgeLabel(id EdgeID) Label { return g.edges[id].Label }

// VertexLabelIndex returns the index of v's label in LabelCounts.
func (g *Graph) VertexLabelIndex(v VertexID) int32 { return g.vidx[v] }

// EdgeLabelIndex returns the index of edge id's label in EdgeLabelCounts.
func (g *Graph) EdgeLabelIndex(id EdgeID) int32 { return g.eidx[id] }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v VertexID) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v. The returned slice must not be
// modified.
func (g *Graph) Neighbors(v VertexID) []HalfEdge { return g.adj[v] }

// EdgeBetween returns the ID of the edge joining u and v, if any.
func (g *Graph) EdgeBetween(u, v VertexID) (EdgeID, bool) {
	// Scan the shorter adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, h := range g.adj[u] {
		if h.To == v {
			return h.Edge, true
		}
	}
	return 0, false
}

// Edges returns a copy of the edge slice, indexed by EdgeID.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Rename returns a shallow copy of g carrying a different name. The
// structural data is shared; Graphs are immutable so sharing is safe.
func (g *Graph) Rename(name string) *Graph {
	cp := *g
	cp.name = name
	return &cp
}

// DeleteEdges returns a new graph with the same vertex set and every edge of
// g except those whose IDs appear in drop. Edge IDs are renumbered densely
// in the original order.
func (g *Graph) DeleteEdges(drop []EdgeID) *Graph {
	dead := make([]bool, len(g.edges))
	for _, id := range drop {
		dead[id] = true
	}
	b := NewBuilder(g.name)
	b.vlabel = append([]Label(nil), g.vlabel...)
	for id, e := range g.edges {
		if !dead[id] {
			b.edges = append(b.edges, e)
		}
	}
	return b.Build()
}

// EdgeSubgraph returns the subgraph of g consisting of exactly the edges in
// keep plus every vertex of g (vertex set is preserved so VertexIDs remain
// stable). Edge IDs are renumbered densely in increasing original order.
func (g *Graph) EdgeSubgraph(keep []EdgeID) *Graph {
	sorted := append([]EdgeID(nil), keep...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	b := NewBuilder(g.name)
	b.vlabel = append([]Label(nil), g.vlabel...)
	var prev EdgeID = -1
	for _, id := range sorted {
		if id == prev {
			continue
		}
		prev = id
		b.edges = append(b.edges, g.edges[id])
	}
	return b.Build()
}

// DropIsolated returns a copy of g without isolated (degree-0) vertices.
// Vertex IDs are renumbered densely preserving order; edge order is kept.
func (g *Graph) DropIsolated() *Graph {
	remap := make([]VertexID, len(g.vlabel))
	b := NewBuilder(g.name)
	for v, l := range g.vlabel {
		if len(g.adj[v]) > 0 {
			remap[v] = b.AddVertex(l)
		} else {
			remap[v] = -1
		}
	}
	for _, e := range g.edges {
		b.edges = append(b.edges, Edge{U: remap[e.U], V: remap[e.V], Label: e.Label})
	}
	return b.Build()
}

// Without returns g without the edges in deleted and without the vertices
// that leaves isolated: g.DeleteEdges(deleted.Slice()).DropIsolated(),
// built once. Vertex and edge IDs are renumbered densely preserving order.
func (g *Graph) Without(deleted EdgeSet) *Graph {
	const kept = 1 // a vertex with a surviving edge, before it is renumbered
	remap := make([]VertexID, len(g.vlabel))
	for id, e := range g.edges {
		if !deleted.Contains(EdgeID(id)) {
			remap[e.U], remap[e.V] = kept, kept
		}
	}
	b := &Builder{name: g.name, edges: make([]Edge, 0, len(g.edges)-deleted.Count())}
	for v, l := range g.vlabel {
		if remap[v] == kept {
			remap[v] = b.AddVertex(l)
		} else {
			remap[v] = -1
		}
	}
	for id, e := range g.edges {
		if !deleted.Contains(EdgeID(id)) {
			b.edges = append(b.edges, Edge{U: remap[e.U], V: remap[e.V], Label: e.Label})
		}
	}
	return b.Build()
}

// ConnectedComponents returns, for each vertex, its component index, and the
// number of components.
func (g *Graph) ConnectedComponents() (comp []int, n int) {
	comp = make([]int, len(g.vlabel))
	for i := range comp {
		comp[i] = -1
	}
	var stack []VertexID
	for v := range g.vlabel {
		if comp[v] >= 0 {
			continue
		}
		stack = append(stack[:0], VertexID(v))
		comp[v] = n
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.adj[u] {
				if comp[h.To] < 0 {
					comp[h.To] = n
					stack = append(stack, h.To)
				}
			}
		}
		n++
	}
	return comp, n
}

// IsConnected reports whether g is connected. The empty graph and the
// single-vertex graph are connected.
func (g *Graph) IsConnected() bool {
	_, n := g.ConnectedComponents()
	return n <= 1
}

// String renders a compact human-readable description.
func (g *Graph) String() string {
	var sb strings.Builder
	if g.name != "" {
		fmt.Fprintf(&sb, "%s: ", g.name)
	}
	fmt.Fprintf(&sb, "%d vertices, %d edges {", len(g.vlabel), len(g.edges))
	for i, e := range g.edges {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%d(%s)-[%s]-%d(%s)", e.U, g.vlabel[e.U], e.Label, e.V, g.vlabel[e.V])
	}
	sb.WriteString("}")
	return sb.String()
}

// LabelCounts returns the multiset of vertex labels. It is the graph's own,
// shared by every caller: read-only.
func (g *Graph) LabelCounts() LabelCounts { return g.vcount }

// EdgeLabelCounts returns the multiset of edge labels. It is the graph's
// own, shared by every caller: read-only.
func (g *Graph) EdgeLabelCounts() LabelCounts { return g.ecount }

// EdgeTypes returns the multiset of edge types. It is the graph's own,
// shared by every caller: read-only.
func (g *Graph) EdgeTypes() EdgeTypes { return g.etypes }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	b := NewBuilder(g.name)
	b.vlabel = append([]Label(nil), g.vlabel...)
	b.edges = append([]Edge(nil), g.edges...)
	return b.Build()
}
