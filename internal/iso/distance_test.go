package iso_test

import (
	"math/rand"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/mcs"
)

// labelled builds a graph from one-letter vertex labels and (u, v) pairs.
func labelled(vlabels string, edges [][2]int) *graph.Graph {
	b := graph.NewBuilder("g")
	for _, l := range vlabels {
		b.AddVertex(graph.Label(string(l)))
	}
	for _, e := range edges {
		b.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), "")
	}
	return b.Build()
}

func cycle(n int) (edges [][2]int) {
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return edges
}

func star(n int) (edges [][2]int) {
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return edges
}

func clique(n int) (edges [][2]int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{i, j})
		}
	}
	return edges
}

func uniform(n int) string { return "aaaaaaaaaaaa"[:n] }

// randomMask keeps each edge of t with probability 2/3.
func randomMask(rng *rand.Rand, t *graph.Graph) *graph.EdgeSet {
	m := graph.NewEdgeSet(t.NumEdges())
	for e := 0; e < t.NumEdges(); e++ {
		if rng.Intn(3) > 0 {
			m.Add(graph.EdgeID(e))
		}
	}
	return &m
}

// TestTolerantMatchesDistance holds the tolerant search to the Definition 8
// oracle: ExistsWithin(q, t, mask, δ) ⇔ mcs.Distance(q, t, mask, δ) ≤ δ.
func TestTolerantMatchesDistance(t *testing.T) {
	check := func(name string, q, tg *graph.Graph, mask *graph.EdgeSet, delta int) {
		t.Helper()
		if got, want := iso.ExistsWithin(q, tg, mask, delta), mcs.Distance(q, tg, mask, delta) <= delta; got != want {
			t.Errorf("%s δ=%d: ExistsWithin %v, Distance ≤ δ %v\nq = %v\nt = %v\nmask = %v", name, delta, got, want, q, tg, mask)
		}
	}

	// Seeded random labelled graphs; label "z" never occurs in a target,
	// and sparse queries leave vertices isolated.
	labels := []graph.Label{"a", "b", "c", "z"}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		random := func(nv, ne, nl int, el []graph.Label) *graph.Graph {
			b := graph.NewBuilder("rnd")
			for v := 0; v < nv; v++ {
				b.AddVertex(labels[rng.Intn(nl)])
			}
			for tries, added := 0, 0; added < ne && tries < 20*ne; tries++ {
				u, v := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
				if u == v {
					continue
				}
				if _, err := b.AddEdge(u, v, el[rng.Intn(len(el))]); err == nil {
					added++
				}
			}
			return b.Build()
		}
		el := []graph.Label{"", "x"}[:1+seed%2]
		tg := random(6+rng.Intn(3), 7+rng.Intn(6), 3, el)
		q := random(3+rng.Intn(4), 1+rng.Intn(6), 3+int(seed%4)/3, el)
		for _, mask := range []*graph.EdgeSet{nil, randomMask(rng, tg)} {
			for delta := 0; delta <= 3; delta++ {
				check("random", q, tg, mask, delta)
			}
			check("all but one edge", q, tg, mask, max(q.NumEdges()-1, 0))
		}
	}

	// Uniform labels: every deletion set looks alike locally, so only the
	// structure decides.
	rng := rand.New(rand.NewSource(1))
	type shape struct {
		name string
		g    *graph.Graph
	}
	var shapes []shape
	for _, n := range []int{4, 5, 6, 7} {
		shapes = append(shapes, shape{"cycle", labelled(uniform(n), cycle(n))})
	}
	for _, n := range []int{4, 6} {
		shapes = append(shapes, shape{"star", labelled(uniform(n), star(n))})
	}
	for _, n := range []int{3, 4, 5} {
		shapes = append(shapes, shape{"clique", labelled(uniform(n), clique(n))})
	}
	for _, q := range shapes {
		for _, tg := range shapes {
			for _, mask := range []*graph.EdgeSet{nil, randomMask(rng, tg.g)} {
				for delta := 0; delta <= 3; delta++ {
					check(q.name+" in "+tg.name, q.g, tg.g, mask, delta)
				}
			}
		}
	}

	// Isolated query vertices never constrain a match, whatever their label.
	q := labelled("abzaa", [][2]int{{0, 1}, {1, 4}})
	tg := labelled("aba", [][2]int{{0, 1}, {1, 2}})
	for delta := 0; delta <= 2; delta++ {
		check("isolated", q, tg, nil, delta)
	}
	if !iso.ExistsWithin(q, tg, nil, 0) {
		t.Error("a–b–a with two isolated vertices should embed in a–b–a at δ 0")
	}
}
