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
	"strings"
	"unique"
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

// Handle is an interned Label: two handles are equal exactly when their
// labels are, and Value returns the label. A graph stores one handle per
// vertex and one per edge and nothing else about its labels; a label no
// graph holds any more is dropped by the runtime.
type Handle = unique.Handle[Label]

// compareLabels orders two handles by their labels, reading no string when
// they are the same handle.
func compareLabels(a, b Handle) int {
	if a == b {
		return 0
	}
	return cmp.Compare(a.Value(), b.Value())
}

// Edge is an undirected labeled edge between U and V. Invariant: U < V.
type Edge struct {
	U, V  VertexID
	Label Label
}

// edge is an Edge as a graph stores it, its label interned.
type edge struct {
	U, V  VertexID
	label Handle
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
	vlabel []Handle
	edges  []edge
	adj    [][]HalfEdge
	// vcount is the vertex-label multiset and etypes the edge-type
	// multiset, both counted once by Build.
	vcount LabelCounts
	etypes EdgeTypes
}

// LabelCounts is a multiset of labels: one entry per distinct label,
// ascending. A few dozen bytes where a map costs several hundred, which
// matters because every graph of a database carries one.
type LabelCounts []LabelCount

// LabelCount is one entry of a LabelCounts.
type LabelCount struct {
	Label Handle
	N     int
}

// multiset sorts keys in place by compare and returns one entry per
// distinct key, ascending, made by entry from the key and its count.
func multiset[K comparable, E any](keys []K, compare func(K, K) int, entry func(K, int) E) []E {
	slices.SortFunc(keys, compare)
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

// Covers reports whether every label of need occurs in c at least as often.
func (c LabelCounts) Covers(need LabelCounts) bool {
	for _, n := range need {
		for len(c) > 0 && compareLabels(c[0].Label, n.Label) < 0 {
			c = c[1:]
		}
		if len(c) == 0 || c[0].Label != n.Label || c[0].N < n.N {
			return false
		}
	}
	return true
}

// EdgeTypes is a multiset of edge types: one entry per distinct type,
// ascending by key, types that share a key by their labels. An edge's type
// is its label and its endpoints' labels, unordered.
type EdgeTypes []EdgeType

// EdgeType is one entry of an EdgeTypes: Labels holds the edge's label and
// its endpoints' labels, the lesser endpoint label first, and Key a 32-bit
// hash of the three, which orders the entries; N counts the edges. Two
// types are equal when their labels are: the key only orders them, so
// types may share one, and 32 bits keep an entry at four words.
type EdgeType struct {
	Key    uint32
	N      int32
	Labels [3]Handle
}

// edgeType returns the type of an edge labelled l between vertices labelled
// a and b. Its key is FNV-1a over the three labels, each ended by its
// length, with a and b in order.
func edgeType(l, a, b Handle) EdgeType {
	if compareLabels(a, b) > 0 {
		a, b = b, a
	}
	h := uint32(2166136261)
	for _, s := range [3]Label{l.Value(), a.Value(), b.Value()} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
		h = (h ^ uint32(len(s))) * 16777619
	}
	return EdgeType{Key: h, Labels: [3]Handle{l, a, b}}
}

// compareTypes orders edge types by key, then by their labels; it reads a
// label only for two distinct types that share a key.
func compareTypes(x, y EdgeType) int {
	if c := cmp.Compare(x.Key, y.Key); c != 0 || x.Labels == y.Labels {
		return c
	}
	for i := range x.Labels {
		if c := compareLabels(x.Labels[i], y.Labels[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Deficit returns how many of c's edges find no edge of their own type in
// t, Σ max(0, c(τ) − t(τ)) over types τ, or stops counting once that
// exceeds limit and returns limit + 1. It compares keys and, among t's
// types with a key equal to one of c's, handles: it reads no label.
func (c EdgeTypes) Deficit(t EdgeTypes, limit int) int {
	d := 0
	for _, need := range c {
		for len(t) > 0 && t[0].Key < need.Key {
			t = t[1:]
		}
		have := int32(0)
		for _, e := range t {
			if e.Key != need.Key {
				break
			}
			if e.Labels == need.Labels {
				have = e.N
				break
			}
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
	vlabel []Handle
	edges  []edge
	seen   map[[2]VertexID]bool
}

// NewBuilder returns a Builder for a graph with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, seen: make(map[[2]VertexID]bool)}
}

// AddVertex appends a vertex with the given label and returns its ID.
func (b *Builder) AddVertex(l Label) VertexID {
	return b.addVertex(unique.Make(l))
}

// addVertex appends a vertex labelled h and returns its ID.
func (b *Builder) addVertex(h Handle) VertexID {
	b.vlabel = append(b.vlabel, h)
	return VertexID(len(b.vlabel) - 1)
}

// AddVertices appends n vertices all carrying label l and returns the ID of
// the first one.
func (b *Builder) AddVertices(n int, l Label) VertexID {
	first, h := VertexID(len(b.vlabel)), unique.Make(l)
	for i := 0; i < n; i++ {
		b.addVertex(h)
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
	b.edges = append(b.edges, edge{U: u, V: v, label: unique.Make(l)})
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
	g := &Graph{
		name:   b.name,
		vlabel: b.vlabel,
		edges:  b.edges,
		adj:    make([][]HalfEdge, len(b.vlabel)),
		vcount: multiset(slices.Clone(b.vlabel), compareLabels, func(h Handle, n int) LabelCount { return LabelCount{h, n} }),
	}
	types := make([]EdgeType, len(b.edges))
	deg := make([]int, len(b.vlabel))
	for i, e := range b.edges {
		deg[e.U]++
		deg[e.V]++
		types[i] = edgeType(e.label, b.vlabel[e.U], b.vlabel[e.V])
	}
	g.etypes = multiset(types, compareTypes, func(t EdgeType, n int) EdgeType { t.N = int32(n); return t })
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
func (g *Graph) VertexLabel(v VertexID) Label { return g.vlabel[v].Value() }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge {
	e := g.edges[id]
	return Edge{U: e.U, V: e.V, Label: e.label.Value()}
}

// EdgeLabel returns the label of the edge with the given ID.
func (g *Graph) EdgeLabel(id EdgeID) Label { return g.edges[id].label.Value() }

// VertexHandle returns v's label interned: two vertices, of any graphs,
// carry the same label exactly when their handles are equal.
func (g *Graph) VertexHandle(v VertexID) Handle { return g.vlabel[v] }

// EdgeHandle returns the label of edge id interned, as VertexHandle does.
func (g *Graph) EdgeHandle(id EdgeID) Handle { return g.edges[id].label }

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
	for id := range out {
		out[id] = g.Edge(EdgeID(id))
	}
	return out
}

// Rename returns a shallow copy of g carrying a different name. The
// structural data is shared; Graphs are immutable so sharing is safe.
func (g *Graph) Rename(name string) *Graph {
	cp := *g
	cp.name = name
	return &cp
}

// EdgeSubgraph returns the subgraph of g consisting of exactly the edges in
// keep plus every vertex of g (vertex set is preserved so VertexIDs remain
// stable). Edge IDs are renumbered densely in increasing original order.
func (g *Graph) EdgeSubgraph(keep []EdgeID) *Graph {
	b := NewBuilder(g.name)
	b.vlabel = slices.Clone(g.vlabel)
	for _, id := range slices.Compact(slices.Sorted(slices.Values(keep))) {
		b.edges = append(b.edges, g.edges[id])
	}
	return b.Build()
}

// DropIsolated returns a copy of g without isolated (degree-0) vertices.
// Vertex IDs are renumbered densely preserving order; edge order is kept.
func (g *Graph) DropIsolated() *Graph {
	remap := make([]VertexID, len(g.vlabel))
	b := NewBuilder(g.name)
	for v, h := range g.vlabel {
		if len(g.adj[v]) > 0 {
			remap[v] = b.addVertex(h)
		} else {
			remap[v] = -1
		}
	}
	for _, e := range g.edges {
		b.edges = append(b.edges, edge{U: remap[e.U], V: remap[e.V], label: e.label})
	}
	return b.Build()
}

// Without returns g without the edges in deleted and without the vertices
// that leaves isolated: the edge subgraph of the other edges, then
// DropIsolated, built once. Vertex and edge IDs are renumbered densely
// preserving order.
func (g *Graph) Without(deleted EdgeSet) *Graph {
	const kept = 1 // a vertex with a surviving edge, before it is renumbered
	remap := make([]VertexID, len(g.vlabel))
	for id, e := range g.edges {
		if !deleted.Contains(EdgeID(id)) {
			remap[e.U], remap[e.V] = kept, kept
		}
	}
	b := &Builder{name: g.name, edges: make([]edge, 0, len(g.edges)-deleted.Count())}
	for v, h := range g.vlabel {
		if remap[v] == kept {
			remap[v] = b.addVertex(h)
		} else {
			remap[v] = -1
		}
	}
	for id, e := range g.edges {
		if !deleted.Contains(EdgeID(id)) {
			b.edges = append(b.edges, edge{U: remap[e.U], V: remap[e.V], label: e.label})
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
		fmt.Fprintf(&sb, "%d(%s)-[%s]-%d(%s)", e.U, g.vlabel[e.U].Value(), e.label.Value(), e.V, g.vlabel[e.V].Value())
	}
	sb.WriteString("}")
	return sb.String()
}

// LabelCounts returns the multiset of vertex labels. It is the graph's own,
// shared by every caller: read-only.
func (g *Graph) LabelCounts() LabelCounts { return g.vcount }

// EdgeTypes returns the multiset of edge types. It is the graph's own,
// shared by every caller: read-only.
func (g *Graph) EdgeTypes() EdgeTypes { return g.etypes }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	b := NewBuilder(g.name)
	b.vlabel = slices.Clone(g.vlabel)
	b.edges = slices.Clone(g.edges)
	return b.Build()
}

// Mix is SplitMix64's output function: z advanced by the golden gamma and
// finalized, a bijection on 64-bit words. The generator's stream seeded
// with s is Mix(s), Mix(s+γ), Mix(s+2γ), …; the samplers' streams, the
// per-candidate seeds, the image-set hash and the relaxation fingerprints
// all mix through it.
func Mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
