package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// oracleLabels are labels free of the bytes CanonicalCode escapes, chosen
// to reach the refinement's string quirks: '#' cuts a color's prefix, and
// '/', '~', ',', '(' and ')' are the color grammar's own bytes.
var oracleLabels = []Label{"", "a", "b", "ab", "a#", "a-", "a#1", "#", "a/1", "~", ",", "(", ")", "10", "9"}

// randomOracleGraph draws a graph over the first k oracle labels, with a
// random density: up to twelve vertices given three labels or more, so
// that refinement ranks reach two digits ("10" sorts before "9"), but up
// to eight with fewer, since the oracle takes seconds on a 9-clique.
func randomOracleGraph(rng *rand.Rand) *Graph {
	k := 1 + rng.Intn(len(oracleLabels))
	nv := 1 + rng.Intn(12)
	if k < 3 {
		nv = 1 + rng.Intn(8)
	}
	vl, el := oracleLabels[:k], oracleLabels[:1+rng.Intn(k)]
	return randomGraph(rng, nv, rng.Intn(nv*(nv-1)/2+1), vl, el)
}

// TestCanonicalCodeMatchesOracle holds CanonicalCode to the implementation
// it replaced, byte for byte, on seeded random graphs: sparse and dense,
// one label and many, and a share of sparse single-label graphs of four
// to eight vertices, where refinement often leaves vertices that are not
// exchangeable in one class and the search alone tells them apart.
func TestCanonicalCodeMatchesOracle(t *testing.T) {
	count := 20000
	if testing.Short() {
		count = 2000
	}
	rng := rand.New(rand.NewSource(53))
	for i := range count {
		var g *Graph
		if i%4 == 0 {
			nv := 4 + rng.Intn(5)
			g = randomGraph(rng, nv, nv+rng.Intn(nv), []Label{"a"}, []Label{""})
		} else {
			g = randomOracleGraph(rng)
		}
		if got, want := CanonicalCode(g), canonicalCodeOracle(g); got != want {
			t.Fatalf("graph %d: code\n%s\noracle\n%s\n%v", i, got, want, g)
		}
	}
}

// collisionPair is two non-isomorphic graphs whose codes were equal while
// labels went into the code raw: a path a–b–c labelled x and y, and one
// edge a–b whose label spells the rest of the path's code.
func collisionPair() (*Graph, *Graph) {
	ba := NewBuilder("A")
	ba.AddVertex("a")
	ba.AddVertex("b")
	ba.AddVertex("c")
	ba.MustAddEdge(0, 1, "x")
	ba.MustAddEdge(1, 2, "y")
	bb := NewBuilder("B")
	bb.AddVertex("a")
	bb.AddVertex("b")
	bb.MustAddEdge(0, 1, "x];c:1[y")
	return ba.Build(), bb.Build()
}

func TestCanonicalCodeEscapesDelimiters(t *testing.T) {
	a, b := collisionPair()
	if ca, cb := CanonicalCode(a), CanonicalCode(b); ca == cb {
		t.Fatalf("non-isomorphic graphs share the code %q", ca)
	}
	if got, want := CanonicalCode(b), "a:;b:0[x%5D%3Bc%3A1%5By];"; got != want {
		t.Fatalf("code %q, want %q", got, want)
	}
	bp := NewBuilder("%")
	bp.AddVertex("%3A")
	bp.AddVertex(":")
	if got, want := CanonicalCode(bp.Build()), "%253A:;%3A:;"; got != want {
		t.Fatalf("code %q, want %q", got, want)
	}
}

// fuzzGraph decodes one graph of at most maxV vertices from data: a vertex
// count, a label index per vertex, an edge count, and per edge two
// endpoints and a label index, each one byte; missing bytes read as 0.
func fuzzGraph(data []byte, labels []Label, maxV int) (*Graph, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	b := NewBuilder("")
	nv := next() % (maxV + 1)
	for range nv {
		b.AddVertex(labels[next()%len(labels)])
	}
	ne := next() % 16
	for range ne {
		u, v, l := next(), next(), next()
		if nv > 0 {
			b.AddEdge(VertexID(u%nv), VertexID(v%nv), labels[l%len(labels)]) // a loop or a repeat is dropped
		}
	}
	return b.Build(), data
}

// fuzzLabels are the labels fuzzGraph draws from: the oracle's, plus
// labels holding the bytes CanonicalCode escapes.
var fuzzLabels = append(append([]Label(nil), oracleLabels...), "x", "y", "c", "x];c:1[y", "%", "%25", ":", ";", "[", "]", "a:b")

// bruteIsomorphic decides isomorphism by trying every vertex bijection.
func bruteIsomorphic(a, b *Graph) bool {
	n := a.NumVertices()
	if n != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, perm := range permutations(n) {
		ok := true
		for v := 0; v < n && ok; v++ {
			ok = a.VertexLabel(VertexID(v)) == b.VertexLabel(VertexID(perm[v]))
		}
		for _, e := range a.Edges() {
			if !ok {
				break
			}
			id, has := b.EdgeBetween(VertexID(perm[e.U]), VertexID(perm[e.V]))
			ok = has && b.EdgeLabel(id) == e.Label
		}
		if ok {
			return true
		}
	}
	return false
}

// FuzzCanonicalCode decodes two graphs and a seed and holds CanonicalCode
// to the oracle where no label holds an escaped byte, to its own value
// under a random renumbering of the vertices, and, on at most six
// vertices, to brute-force isomorphism: equal codes exactly when the two
// graphs are isomorphic.
func FuzzCanonicalCode(f *testing.F) {
	idx := func(l Label) byte {
		for i, x := range fuzzLabels {
			if x == l {
				return byte(i)
			}
		}
		panic(l)
	}
	// The collision pair.
	f.Add([]byte{3, idx("a"), idx("b"), idx("c"), 2, 0, 1, idx("x"), 1, 2, idx("y"),
		2, idx("a"), idx("b"), 1, 0, 1, idx("x];c:1[y"), 1})
	// Single-label K4 against K4 minus one edge.
	f.Add([]byte{4, 1, 1, 1, 1, 6, 0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 1, 3, 0, 2, 3, 0,
		4, 1, 1, 1, 1, 5, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 0, 0, 2, 0, 2})
	// C6 against two triangles: 2-regular, one label, refinement splits neither.
	f.Add([]byte{6, 1, 1, 1, 1, 1, 1, 6, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 0, 0,
		6, 1, 1, 1, 1, 1, 1, 6, 0, 1, 0, 1, 2, 0, 2, 0, 0, 3, 4, 0, 4, 5, 0, 5, 3, 0, 3})
	// A star against a path, and stars in labels a#, a- and ab.
	f.Add([]byte{5, 1, 1, 1, 1, 1, 4, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0,
		5, 1, 1, 1, 1, 1, 4, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4})
	f.Add([]byte{4, idx("a#"), idx("a-"), idx("ab"), idx("a#"), 3, 0, 1, idx("ab"), 0, 2, idx("a#"), 0, 3, idx("a-"),
		4, idx("a#"), idx("a#"), idx("ab"), idx("a-"), 3, 1, 0, idx("ab"), 1, 2, idx("a#"), 1, 3, idx("a-"), 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		g1, rest := fuzzGraph(data, fuzzLabels, 8)
		g2, rest := fuzzGraph(rest, fuzzLabels, 8)
		seed := int64(0)
		for _, c := range rest {
			seed = seed*31 + int64(c)
		}
		rng := rand.New(rand.NewSource(seed))
		c1, c2 := CanonicalCode(g1), CanonicalCode(g2)
		for _, x := range []struct {
			g    *Graph
			code string
		}{{g1, c1}, {g2, c2}} {
			if !escapes(x.g) {
				if want := canonicalCodeOracle(x.g); x.code != want {
					t.Fatalf("code %q, oracle %q\n%v", x.code, want, x.g)
				}
			}
			if h := permuteGraph(rng, x.g); CanonicalCode(h) != x.code {
				t.Fatalf("code %q moves to %q under renumbering\n%v\n%v", x.code, CanonicalCode(h), x.g, h)
			}
		}
		if g1.NumVertices() <= 6 && g2.NumVertices() <= 6 {
			if iso := bruteIsomorphic(g1, g2); (c1 == c2) != iso {
				t.Fatalf("codes equal %v, isomorphic %v\n%q %v\n%q %v", c1 == c2, iso, c1, g1, c2, g2)
			}
		}
	})
}

// TestCanonicalCodeTwins: shapes whose refinement splits nothing and whose
// vertices are twins — a single-label K12, where every ordering renders the
// same, and K6,6, whose two sides are twin sets — are coded in well under
// 10 ms each without the race detector (an unpruned search takes minutes
// on K12). K12's code is written out; K6,6's holds under renumbering, and
// on smaller complete and complete bipartite graphs the code is the
// oracle's.
func TestCanonicalCodeTwins(t *testing.T) {
	complete := func(n int) *Graph {
		b := NewBuilder("k")
		b.AddVertices(n, "a")
		for u := range n {
			for v := u + 1; v < n; v++ {
				b.MustAddEdge(VertexID(u), VertexID(v), "")
			}
		}
		return b.Build()
	}
	bipartite := func(n int) *Graph {
		b := NewBuilder("kk")
		b.AddVertices(2*n, "a")
		for u := range n {
			for v := n; v < 2*n; v++ {
				b.MustAddEdge(VertexID(u), VertexID(v), "")
			}
		}
		return b.Build()
	}
	for _, g := range []*Graph{complete(5), complete(7), bipartite(2), bipartite(3), bipartite(4)} {
		if got, want := CanonicalCode(g), canonicalCodeOracle(g); got != want {
			t.Fatalf("code %q, oracle %q\n%v", got, want, g)
		}
	}
	var k12 strings.Builder
	for d := range 12 {
		k12.WriteString("a:")
		for j := range d {
			fmt.Fprintf(&k12, "%d[]", j)
		}
		k12.WriteString(";")
	}
	rng := rand.New(rand.NewSource(12))
	for _, c := range []struct {
		g    *Graph
		want string
	}{{complete(12), k12.String()}, {bipartite(6), ""}} {
		start := time.Now()
		code := CanonicalCode(c.g)
		if took := time.Since(start); took > 10*time.Millisecond && !raceEnabled {
			t.Errorf("%d vertices, %d edges: coded in %v", c.g.NumVertices(), c.g.NumEdges(), took)
		}
		if c.want != "" && code != c.want {
			t.Errorf("code %q, want %q", code, c.want)
		}
		if h := permuteGraph(rng, c.g); CanonicalCode(h) != code {
			t.Errorf("code %q moves to %q under renumbering", code, CanonicalCode(h))
		}
	}
}

// escapes reports whether some label of g holds a byte CanonicalCode
// escapes.
func escapes(g *Graph) bool {
	for v := range g.NumVertices() {
		if strings.ContainsAny(string(g.VertexLabel(VertexID(v))), "%:;[]") {
			return true
		}
	}
	for _, e := range g.Edges() {
		if strings.ContainsAny(string(e.Label), "%:;[]") {
			return true
		}
	}
	return false
}

// BenchmarkCanonicalCode times three shapes: a six-edge query and an
// eight-edge member of a ten-edge query's relaxed set at δ 2, both cut
// from the benchmark ledger's PPI corpus, and a single-label 8-cycle,
// where refinement splits nothing and the search alone prunes.
func BenchmarkCanonicalCode(b *testing.B) {
	parse := func(text string) *Graph {
		g, err := NewDecoder(strings.NewReader(text)).Decode()
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	cycle := NewBuilder("c8")
	cycle.AddVertices(8, "a")
	for v := range 8 {
		cycle.MustAddEdge(VertexID(v), VertexID((v+1)%8), "")
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"query-6e", parse("g q6\nv 0 C7\nv 1 C7\nv 2 C4\nv 3 C7\nv 4 C0\nv 5 C3\nv 6 C3\n" +
			"e 0 4 -\ne 2 4 -\ne 5 6 -\ne 2 3 -\ne 0 1 -\ne 0 6 -\nend\n")},
		{"member-8e", parse("g q10\nv 0 C4\nv 1 C5\nv 2 C6\nv 3 C3\nv 4 C5\nv 5 C0\nv 6 C7\nv 7 C0\n" +
			"e 0 7 -\ne 2 7 -\ne 0 6 -\ne 3 5 -\ne 1 4 -\ne 1 2 -\ne 1 3 -\ne 5 6 -\nend\n")},
		{"cycle-8", cycle.Build()},
	} {
		if got, want := CanonicalCode(c.g), canonicalCodeOracle(c.g); got != want {
			b.Fatalf("%s: code %q, oracle %q", c.name, got, want)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				CanonicalCode(c.g)
			}
		})
	}
}
