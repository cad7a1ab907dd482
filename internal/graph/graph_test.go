package graph

import (
	"bytes"
	"io"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unique"
)

func mustEdge(t *testing.T, b *Builder, u, v VertexID, l Label) EdgeID {
	t.Helper()
	id, err := b.AddEdge(u, v, l)
	if err != nil {
		t.Fatalf("AddEdge(%d,%d,%q): %v", u, v, l, err)
	}
	return id
}

// triangle builds the paper's graph 001: a triangle with labels a,b,d.
func triangle(t *testing.T) *Graph {
	b := NewBuilder("001")
	va := b.AddVertex("a")
	vb := b.AddVertex("b")
	vd := b.AddVertex("d")
	mustEdge(t, b, va, vb, "")
	mustEdge(t, b, vb, vd, "")
	mustEdge(t, b, va, vd, "")
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	g := triangle(t)
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %d vertices %d edges, want 3/3", g.NumVertices(), g.NumEdges())
	}
	if g.Name() != "001" {
		t.Fatalf("name = %q", g.Name())
	}
	for v := VertexID(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Error("triangle should be connected")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder("x")
	v := b.AddVertex("a")
	if _, err := b.AddEdge(v, v, ""); err == nil {
		t.Fatal("expected self-loop error")
	}
}

func TestBuilderRejectsDuplicateEdge(t *testing.T) {
	b := NewBuilder("x")
	u := b.AddVertex("a")
	v := b.AddVertex("b")
	mustAdd := func() error { _, err := b.AddEdge(u, v, ""); return err }
	if err := mustAdd(); err != nil {
		t.Fatalf("first edge: %v", err)
	}
	if err := mustAdd(); err == nil {
		t.Fatal("expected duplicate-edge error")
	}
	// Reversed orientation is the same undirected edge.
	if _, err := b.AddEdge(v, u, ""); err == nil {
		t.Fatal("expected duplicate-edge error for reversed endpoints")
	}
}

func TestBuilderRejectsMissingVertex(t *testing.T) {
	b := NewBuilder("x")
	b.AddVertex("a")
	if _, err := b.AddEdge(0, 5, ""); err == nil {
		t.Fatal("expected missing-vertex error")
	}
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 1, V: 4}
	if e.Other(1) != 4 || e.Other(4) != 1 {
		t.Fatal("Other endpoints wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-endpoint")
		}
	}()
	e.Other(2)
}

func TestEdgeBetween(t *testing.T) {
	g := triangle(t)
	if _, ok := g.EdgeBetween(0, 1); !ok {
		t.Error("edge {0,1} missing")
	}
	if _, ok := g.EdgeBetween(1, 0); !ok {
		t.Error("edge {1,0} (reversed) missing")
	}
	b := NewBuilder("p")
	x := b.AddVertex("a")
	y := b.AddVertex("b")
	b.AddVertex("c")
	mustEdge(t, b, x, y, "")
	p := b.Build()
	if _, ok := p.EdgeBetween(0, 2); ok {
		t.Error("nonexistent edge reported")
	}
}

// deleteEdges is g without the edges in drop, every vertex kept: the edge
// subgraph of the other edges.
func deleteEdges(g *Graph, drop []EdgeID) *Graph {
	gone := make([]bool, g.NumEdges())
	for _, id := range drop {
		gone[id] = true
	}
	var keep []EdgeID
	for id, d := range gone {
		if !d {
			keep = append(keep, EdgeID(id))
		}
	}
	return g.EdgeSubgraph(keep)
}

func TestDeleteEdges(t *testing.T) {
	g := triangle(t)
	h := deleteEdges(g, []EdgeID{0})
	if h.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", h.NumEdges())
	}
	if h.NumVertices() != 3 {
		t.Fatalf("vertex set must be preserved")
	}
	if g.NumEdges() != 3 {
		t.Fatal("original mutated")
	}
	if want := []Edge{g.Edge(1), g.Edge(2)}; !slices.Equal(h.Edges(), want) {
		t.Fatalf("edges %v, want %v", h.Edges(), want)
	}
}

func TestEdgeSubgraphDedupAndOrder(t *testing.T) {
	g := triangle(t)
	h := g.EdgeSubgraph([]EdgeID{2, 0, 2})
	if h.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2 (dedup)", h.NumEdges())
	}
	if h.Edge(0) != g.Edge(0) || h.Edge(1) != g.Edge(2) {
		t.Fatal("edges not in increasing original order")
	}
}

func TestDropIsolated(t *testing.T) {
	b := NewBuilder("x")
	u := b.AddVertex("a")
	b.AddVertex("iso")
	w := b.AddVertex("b")
	mustEdge(t, b, u, w, "l")
	g := b.Build()
	h := g.DropIsolated()
	if h.NumVertices() != 2 || h.NumEdges() != 1 {
		t.Fatalf("got %d/%d, want 2 vertices 1 edge", h.NumVertices(), h.NumEdges())
	}
	if h.VertexLabel(0) != "a" || h.VertexLabel(1) != "b" {
		t.Fatal("labels scrambled by renumbering")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder("x")
	a := b.AddVertex("a")
	c := b.AddVertex("a")
	d := b.AddVertex("a")
	e := b.AddVertex("a")
	mustEdge(t, b, a, c, "")
	mustEdge(t, b, d, e, "")
	g := b.Build()
	comp, n := g.ConnectedComponents()
	if n != 2 {
		t.Fatalf("components = %d, want 2", n)
	}
	if comp[0] != comp[1] || comp[2] != comp[3] || comp[0] == comp[2] {
		t.Fatalf("bad component assignment %v", comp)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

// TestEdgeTypeInvariance: an edge's type is its label and its endpoints'
// labels, unordered, so the same triangle built in another vertex order
// has the same edge types, and moving a label moves them.
func TestEdgeTypeInvariance(t *testing.T) {
	b := NewBuilder("t2")
	vd := b.AddVertex("d")
	va := b.AddVertex("a")
	vb := b.AddVertex("b")
	mustEdge(t, b, vd, va, "")
	mustEdge(t, b, va, vb, "")
	mustEdge(t, b, vb, vd, "")
	g2 := b.Build()
	g1 := triangle(t)
	if !slices.Equal(g1.EdgeTypes(), g2.EdgeTypes()) {
		t.Fatalf("edge types differ:\n%v\n%v", g1.EdgeTypes(), g2.EdgeTypes())
	}
	rng := rand.New(rand.NewSource(5))
	for range 50 {
		g := randomGraph(rng, 2+rng.Intn(7), rng.Intn(12), []Label{"a", "b", "ab", ""}, []Label{"", "x", "b"})
		if h := permuteGraph(rng, g); !slices.Equal(g.EdgeTypes(), h.EdgeTypes()) {
			t.Fatalf("edge types move under renumbering: %v vs %v", g, h)
		}
	}
	// One edge's type, from its endpoint labels u, v and its label l.
	typeOf := func(u, v, l Label) EdgeTypes {
		b := NewBuilder("")
		b.AddVertex(u)
		b.AddVertex(v)
		b.MustAddEdge(0, 1, l)
		return b.Build().EdgeTypes()
	}
	if !slices.Equal(typeOf("a", "b", "x"), typeOf("b", "a", "x")) {
		t.Fatal("an edge's type depends on the order of its endpoints")
	}
	// Where a label's bytes sit decides the type.
	triples := [][3]Label{{"a", "b", ""}, {"a", "", "b"}, {"ab", "", ""}, {"", "", "ab"}, {"a", "b", "b"}, {"ab", "b", ""}}
	for i, x := range triples {
		for _, y := range triples[:i] {
			if slices.Equal(typeOf(x[0], x[1], x[2]), typeOf(y[0], y[1], y[2])) {
				t.Errorf("edges %q and %q share a type", x, y)
			}
		}
	}
}

// randomGraph builds a random labeled graph from a seed.
func randomGraph(rng *rand.Rand, nv, ne int, vlabels, elabels []Label) *Graph {
	b := NewBuilder("rnd")
	for i := 0; i < nv; i++ {
		b.AddVertex(vlabels[rng.Intn(len(vlabels))])
	}
	tries := 0
	for added := 0; added < ne && tries < 20*ne; tries++ {
		u := VertexID(rng.Intn(nv))
		v := VertexID(rng.Intn(nv))
		if u == v {
			continue
		}
		if _, err := b.AddEdge(u, v, elabels[rng.Intn(len(elabels))]); err == nil {
			added++
		}
	}
	return b.Build()
}

// permuteGraph returns an isomorphic copy of g under a random vertex
// permutation with shuffled edge insertion order.
func permuteGraph(rng *rand.Rand, g *Graph) *Graph {
	n := g.NumVertices()
	perm := rng.Perm(n)
	b := NewBuilder(g.Name() + "-perm")
	inv := make([]VertexID, n)
	for newID := 0; newID < n; newID++ {
		inv[perm[newID]] = VertexID(newID)
	}
	for newID := 0; newID < n; newID++ {
		b.AddVertex(g.VertexLabel(VertexID(perm[newID])))
	}
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	for _, e := range edges {
		if _, err := b.AddEdge(inv[e.U], inv[e.V], e.Label); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestCanonicalCodePermutationInvariance(t *testing.T) {
	vlabels := []Label{"a", "b", "c"}
	elabels := []Label{"", "x"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 2+rng.Intn(6), rng.Intn(10), vlabels, elabels)
		h := permuteGraph(rng, g)
		return CanonicalCode(g) == CanonicalCode(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalCodeDistinguishes(t *testing.T) {
	// Path a-b-c vs star is the classic refinement-needed case; also check
	// label-sensitivity.
	b1 := NewBuilder("p3")
	x := b1.AddVertex("a")
	y := b1.AddVertex("a")
	z := b1.AddVertex("a")
	w := b1.AddVertex("a")
	mustEdge(t, b1, x, y, "")
	mustEdge(t, b1, y, z, "")
	mustEdge(t, b1, z, w, "")
	path := b1.Build()

	b2 := NewBuilder("s3")
	c := b2.AddVertex("a")
	for i := 0; i < 3; i++ {
		leaf := b2.AddVertex("a")
		mustEdge(t, b2, c, leaf, "")
	}
	star := b2.Build()

	if CanonicalCode(path) == CanonicalCode(star) {
		t.Fatal("path and star share a canonical code")
	}

	t1 := triangle(t)
	b3 := NewBuilder("t3")
	va := b3.AddVertex("a")
	vb := b3.AddVertex("b")
	vc := b3.AddVertex("c") // different label than 'd'
	mustEdge(t, b3, va, vb, "")
	mustEdge(t, b3, vb, vc, "")
	mustEdge(t, b3, va, vc, "")
	t2 := b3.Build()
	if CanonicalCode(t1) == CanonicalCode(t2) {
		t.Fatal("differently labeled triangles share a canonical code")
	}
}

func TestIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 6, 8, []Label{"a", "b"}, []Label{""})
	h := permuteGraph(rng, g)
	if !Isomorphic(g, h) {
		t.Fatal("permuted copy not isomorphic")
	}
	if g.NumEdges() > 0 {
		k := deleteEdges(g, []EdgeID{0}) // one fewer edge
		if Isomorphic(g, k) {
			t.Fatal("graphs with different edge counts reported isomorphic")
		}
	}
}

func TestCanonicalCodeEmptyAndSingle(t *testing.T) {
	empty := NewBuilder("e").Build()
	if CanonicalCode(empty) == "" {
		t.Fatal("empty graph code must be nonempty")
	}
	b := NewBuilder("s")
	b.AddVertex("a")
	single := b.Build()
	b2 := NewBuilder("s2")
	b2.AddVertex("b")
	single2 := b2.Build()
	if CanonicalCode(single) == CanonicalCode(single2) {
		t.Fatal("single vertices with different labels share a code")
	}
}

func TestLabelCounts(t *testing.T) {
	g := triangle(t)
	vc := g.LabelCounts()
	h := unique.Make[Label]
	if want := (LabelCounts{{h("a"), 1}, {h("b"), 1}, {h("d"), 1}}); !slices.Equal(vc, want) {
		t.Fatalf("vertex counts %v, want %v", vc, want)
	}
	// A vertex's or edge's handle is its label interned: equal to the
	// handle of an equal label made anywhere else, reading back the label.
	for v := range VertexID(g.NumVertices()) {
		if l := g.VertexHandle(v); l != h(g.VertexLabel(v)) || l.Value() != g.VertexLabel(v) || l != vc[v].Label {
			t.Fatalf("vertex %d: handle %q, label %q", v, l.Value(), g.VertexLabel(v))
		}
	}
	for id := range EdgeID(g.NumEdges()) {
		if g.EdgeHandle(id) != h("") || g.EdgeLabel(id) != "" {
			t.Fatalf("edge %d: handle %q", id, g.EdgeHandle(id).Value())
		}
	}
	// Three edges of three types: a–b, b–d and a–d, all labelled "".
	et := g.EdgeTypes()
	if len(et) != 3 || et[0].N != 1 || et[1].N != 1 || et[2].N != 1 || et[0].Key >= et[1].Key || et[1].Key >= et[2].Key {
		t.Fatalf("edge types %v", et)
	}
	// Covers is multiset inclusion, label by label.
	b := NewBuilder("pair")
	b.AddVertices(2, "a")
	b.AddVertex("d")
	b.MustAddEdge(0, 2, "")
	b.MustAddEdge(1, 2, "")
	pair := b.Build()
	pv := pair.LabelCounts()
	if vc.Covers(pv) || !vc.Covers(pv[1:]) || !pv.Covers(nil) {
		t.Fatalf("Covers: %v vs %v", vc, pv)
	}
	// Deficit: pair's two a–d edges find one in the triangle; the triangle's
	// a–b and b–d edges find none in pair. Past the limit it stops counting.
	for _, c := range []struct {
		p, t        EdgeTypes
		limit, want int
	}{
		{pair.EdgeTypes(), et, 5, 1},
		{et, pair.EdgeTypes(), 5, 2},
		{et, pair.EdgeTypes(), 1, 2},
		{et, pair.EdgeTypes(), 0, 1},
		{et, et, 0, 0},
		{nil, et, 0, 0},
	} {
		if got := c.p.Deficit(c.t, c.limit); got != c.want {
			t.Errorf("%v.Deficit(%v, %d) = %d, want %d", c.p, c.t, c.limit, got, c.want)
		}
	}
}

// TestEdgeTypesMatchOracle holds EdgeTypes, Deficit and Isomorphic's
// type pre-check (equal EdgeTypes) to a count of (edge label, lesser
// endpoint label, greater endpoint label) triples by string, over random
// graphs whose labels are prefixes of one another, empty, or not UTF-8.
func TestEdgeTypesMatchOracle(t *testing.T) {
	labels := []Label{"", "a", "ab", "b", "\xff"}
	count := func(g *Graph) map[[3]string]int {
		c := make(map[[3]string]int)
		for _, e := range g.Edges() {
			a, b := string(g.VertexLabel(e.U)), string(g.VertexLabel(e.V))
			c[[3]string{string(e.Label), min(a, b), max(a, b)}]++
		}
		return c
	}
	rng := rand.New(rand.NewSource(11))
	for i := range 400 {
		p := randomGraph(rng, 1+rng.Intn(6), rng.Intn(10), labels, labels)
		tg := randomGraph(rng, 1+rng.Intn(7), rng.Intn(14), labels, labels)
		if i%4 == 0 {
			tg = permuteGraph(rng, p)
		}
		cp, ct := count(p), count(tg)
		// EdgeTypes is the oracle's multiset, ascending.
		for _, g := range []*Graph{p, tg} {
			et, c := g.EdgeTypes(), count(g)
			if len(et) != len(c) || !slices.IsSortedFunc(et, compareTypes) {
				t.Fatalf("%v: edge types %v, want %d distinct, ascending", g, et, len(c))
			}
			for _, e := range et {
				l := e.Labels
				if key := [3]string{string(l[0].Value()), string(l[1].Value()), string(l[2].Value())}; c[key] != int(e.N) {
					t.Fatalf("%v: type %q counts %d, want %d", g, key, e.N, c[key])
				}
			}
		}
		d := 0
		for k, n := range cp { //pgvet:sorted a sum
			d += max(0, n-ct[k])
		}
		for _, limit := range []int{0, 1, 2, 3, 5, 100} {
			want := d
			if d > limit {
				want = limit + 1
			}
			if got := p.EdgeTypes().Deficit(tg.EdgeTypes(), limit); got != want {
				t.Fatalf("Deficit(%v, %v, %d) = %d, want %d", p, tg, limit, got, want)
			}
		}
		if got, want := slices.Equal(p.EdgeTypes(), tg.EdgeTypes()), maps.Equal(cp, ct); got != want {
			t.Fatalf("%v vs %v: equal types %v, oracle %v", p, tg, got, want)
		}
	}
	// Two types that share a key are counted apart.
	h := unique.Make[Label]
	x := EdgeType{Key: 7, Labels: [3]Handle{h(""), h("a"), h("b")}, N: 2}
	y := EdgeType{Key: 7, Labels: [3]Handle{h("x"), h("a"), h("b")}, N: 1}
	if compareTypes(x, y) >= 0 || compareTypes(y, x) <= 0 || compareTypes(x, x) != 0 {
		t.Fatal("types sharing a key are not ordered by their labels")
	}
	both := EdgeTypes{x, y}
	for _, c := range []struct {
		p, t EdgeTypes
		want int
	}{
		{EdgeTypes{x}, EdgeTypes{y}, 2},
		{EdgeTypes{y}, EdgeTypes{x}, 1},
		{EdgeTypes{x}, both, 0},
		{EdgeTypes{y}, both, 0},
		{both, EdgeTypes{x}, 1},
		{both, EdgeTypes{y}, 2},
		{both, both, 0},
	} {
		if got := c.p.Deficit(c.t, 5); got != c.want {
			t.Errorf("%v.Deficit(%v) = %d, want %d", c.p, c.t, got, c.want)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var buf bytes.Buffer
	var originals []*Graph
	for i := 0; i < 5; i++ {
		g := randomGraph(rng, 3+rng.Intn(5), rng.Intn(8), []Label{"a", "bb", "c"}, []Label{"", "x"})
		originals = append(originals, g)
		if err := Encode(&buf, g); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(&buf)
	for i := 0; ; i++ {
		g, err := dec.Decode()
		if err == io.EOF {
			if i != len(originals) {
				t.Fatalf("decoded %d graphs, want %d", i, len(originals))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		o := originals[i]
		if g.NumVertices() != o.NumVertices() || g.NumEdges() != o.NumEdges() {
			t.Fatalf("graph %d: size mismatch", i)
		}
		for v := 0; v < o.NumVertices(); v++ {
			if g.VertexLabel(VertexID(v)) != o.VertexLabel(VertexID(v)) {
				t.Fatalf("graph %d vertex %d label mismatch", i, v)
			}
		}
		for e := 0; e < o.NumEdges(); e++ {
			if g.Edge(EdgeID(e)) != o.Edge(EdgeID(e)) {
				t.Fatalf("graph %d edge %d mismatch", i, e)
			}
		}
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []string{
		"v 0 a\n",                           // vertex outside block
		"g x\nv 1 a\n",                      // non-dense vertex id
		"g x\ne 0 1 l\n",                    // edge without vertices
		"g x\nv 0 a\n",                      // unterminated block
		"g x\ng y\n",                        // nested header
		"g x\nv 0 a\nfrob 1 2\n",            // unknown directive
		"g x\nv 0 a\nv 1 a\ne 0 0 l\nend\n", // self loop via codec
		wrappedIDs,                          // endpoints that wrap to 0 and 1 in int32
	}
	for i, in := range cases {
		dec := NewDecoder(bytes.NewReader([]byte(in)))
		if _, err := dec.Decode(); err == nil || err == io.EOF {
			t.Errorf("case %d: expected decode error, got %v", i, err)
		}
	}
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(130)
	if s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	if !s.Contains(0) || !s.Contains(64) || !s.Contains(129) || s.Contains(1) {
		t.Fatal("membership wrong")
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) || s.Count() != 2 {
		t.Fatal("remove failed")
	}
	got := s.Slice()
	if len(got) != 2 || got[0] != 0 || got[1] != 129 {
		t.Fatalf("slice = %v", got)
	}
}

func TestEdgeSetAlgebra(t *testing.T) {
	a := NewEdgeSet(80)
	b := NewEdgeSet(80)
	a.Add(3)
	a.Add(70)
	b.Add(3)
	if !a.ContainsAll(b) {
		t.Fatal("ContainsAll failed")
	}
	if b.ContainsAll(a) {
		t.Fatal("ContainsAll inverted")
	}
	if !a.Intersects(b) {
		t.Fatal("Intersects failed")
	}
	if id, ok := a.FirstNotIn(b); !ok || id != 70 {
		t.Fatalf("FirstNotIn = %d, %v; want 70 (the word past the first)", id, ok)
	}
	if _, ok := b.FirstNotIn(a); ok {
		t.Fatal("FirstNotIn found a bit of a subset")
	}
	c := NewEdgeSet(80)
	c.Add(5)
	if a.Intersects(c) {
		t.Fatal("phantom intersection")
	}
	c.UnionWith(a)
	if !c.Contains(3) || !c.Contains(70) || !c.Contains(5) {
		t.Fatal("union failed")
	}
	d := c.Clone()
	if !d.Equal(c) {
		t.Fatal("clone not equal")
	}
	d.Remove(5)
	if d.Equal(c) {
		t.Fatal("clone aliased")
	}
	if c.Key() == d.Key() {
		t.Fatal("keys must differ")
	}
	d.Clear()
	if d.Count() != 0 {
		t.Fatal("clear failed")
	}
	full := FullEdgeSet(80)
	if full.Count() != 80 {
		t.Fatalf("full count = %d", full.Count())
	}
	e := NewEdgeSet(80)
	e.Set(7, true)
	e.Set(7, false)
	if e.Contains(7) {
		t.Fatal("Set(false) failed")
	}
	e.CopyFrom(a)
	if !e.Equal(a) {
		t.Fatal("CopyFrom failed")
	}
}

func TestEdgeSetKeyQuick(t *testing.T) {
	f := func(xs []uint16) bool {
		s1 := NewEdgeSet(256)
		s2 := NewEdgeSet(256)
		for _, x := range xs {
			s1.Add(EdgeID(x % 256))
			s2.Add(EdgeID(x % 256))
		}
		return s1.Key() == s2.Key() && s1.Equal(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRename(t *testing.T) {
	g := triangle(t)
	h := g.Rename("zzz")
	if h.Name() != "zzz" || g.Name() != "001" {
		t.Fatal("rename broken")
	}
	if h.NumEdges() != g.NumEdges() {
		t.Fatal("rename must preserve structure")
	}
}

func TestClone(t *testing.T) {
	g := triangle(t)
	h := g.Clone()
	if !Isomorphic(g, h) {
		t.Fatal("clone not isomorphic")
	}
}

func TestStringRendering(t *testing.T) {
	g := triangle(t)
	s := g.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// splitMix64Seed0 is the reference SplitMix64 stream seeded with 0: its
// first three outputs.
var splitMix64Seed0 = []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}

// TestMixIsSplitMix64: Mix(k·γ) is output k, counting from 0, of the
// reference stream.
func TestMixIsSplitMix64(t *testing.T) {
	for k, want := range splitMix64Seed0 {
		if got := Mix(uint64(k) * 0x9e3779b97f4a7c15); got != want {
			t.Errorf("Mix(%d·γ) = %#016x, want %#016x", k, got, want)
		}
	}
}
