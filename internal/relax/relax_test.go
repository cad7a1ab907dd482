package relax

import (
	"math/rand"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
)

// paperQuery builds the Figure 1 query used by Examples 3 and 4: after one
// deletion the paper obtains three distinct relaxed graphs rq1..rq3.
func paperQuery() *graph.Graph {
	b := graph.NewBuilder("q")
	a1 := b.AddVertex("a")
	a2 := b.AddVertex("a")
	b1 := b.AddVertex("b")
	b2 := b.AddVertex("b")
	c := b.AddVertex("c")
	b.MustAddEdge(a1, a2, "")
	b.MustAddEdge(a1, b1, "")
	b.MustAddEdge(a2, b2, "")
	b.MustAddEdge(b1, b2, "")
	b.MustAddEdge(b2, c, "")
	return b.Build()
}

func TestRelaxedDeltaZero(t *testing.T) {
	q := paperQuery()
	u := Relaxed(q, 0, 0)
	if len(u) != 1 || u[0] != q {
		t.Fatalf("delta=0 must return {q}, got %d graphs", len(u))
	}
}

func TestRelaxedCountsAndSizes(t *testing.T) {
	q := paperQuery()
	u := Relaxed(q, 1, 0)
	// 5 single-edge deletions, deduplicated canonically.
	if len(u) == 0 || len(u) > 5 {
		t.Fatalf("|U| = %d, want within (0,5]", len(u))
	}
	for _, rq := range u {
		if rq.NumEdges() != q.NumEdges()-1 {
			t.Fatalf("relaxed graph has %d edges, want %d", rq.NumEdges(), q.NumEdges()-1)
		}
	}
}

func TestRelaxedDedup(t *testing.T) {
	// Triangle with identical labels: all three single-edge deletions are
	// isomorphic, so U must contain exactly one graph.
	b := graph.NewBuilder("tri")
	v0 := b.AddVertex("a")
	v1 := b.AddVertex("a")
	v2 := b.AddVertex("a")
	b.MustAddEdge(v0, v1, "")
	b.MustAddEdge(v1, v2, "")
	b.MustAddEdge(v0, v2, "")
	tri := b.Build()
	u := Relaxed(tri, 1, 0)
	if len(u) != 1 {
		t.Fatalf("|U| = %d, want 1 (all deletions isomorphic)", len(u))
	}
	if u[0].NumEdges() != 2 || u[0].NumVertices() != 3 {
		t.Fatalf("relaxed triangle wrong shape: %v", u[0])
	}
}

func TestRelaxedDeltaAtLeastEdges(t *testing.T) {
	q := paperQuery()
	for _, d := range []int{q.NumEdges(), q.NumEdges() + 3} {
		u := Relaxed(q, d, 0)
		if len(u) != 1 || u[0].NumEdges() != 0 {
			t.Fatalf("delta=%d: want single empty graph, got %d graphs", d, len(u))
		}
	}
}

func TestRelaxedDropsIsolated(t *testing.T) {
	// Path of 2 edges: deleting one leaves an isolated endpoint that must
	// be dropped.
	b := graph.NewBuilder("p")
	v0 := b.AddVertex("a")
	v1 := b.AddVertex("b")
	v2 := b.AddVertex("c")
	b.MustAddEdge(v0, v1, "")
	b.MustAddEdge(v1, v2, "")
	p := b.Build()
	for _, rq := range Relaxed(p, 1, 0) {
		if rq.NumVertices() != 2 {
			t.Fatalf("isolated vertex not dropped: %v", rq)
		}
	}
}

func TestRelaxedMaxSize(t *testing.T) {
	// K5-ish label-distinct graph where deletions are all non-isomorphic.
	b := graph.NewBuilder("k")
	var vs []graph.VertexID
	for i := 0; i < 5; i++ {
		vs = append(vs, b.AddVertex(graph.Label(string(rune('a'+i)))))
	}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.MustAddEdge(vs[i], vs[j], "")
		}
	}
	g := b.Build()
	u := Relaxed(g, 2, 7)
	if len(u) != 7 {
		t.Fatalf("maxSize ignored: |U| = %d, want 7", len(u))
	}
}

// TestRelaxedDeltaZeroDropsIsolated: the δ = 0 level is isolated-free like
// every other level — Definition 8 counts edges only, so a query vertex
// without an edge must not constrain a match.
func TestRelaxedDeltaZeroDropsIsolated(t *testing.T) {
	b := graph.NewBuilder("q")
	v0 := b.AddVertex("a")
	v1 := b.AddVertex("b")
	b.AddVertex("z") // isolated
	b.MustAddEdge(v0, v1, "x")
	q := b.Build()
	u := Relaxed(q, 0, 0)
	if len(u) != 1 || u[0].NumVertices() != 2 || u[0].NumEdges() != 1 {
		t.Fatalf("delta=0 must return q without its isolated vertex, got %v", u)
	}
	if e := u[0].Edge(0); u[0].VertexLabel(e.U) != "a" || u[0].VertexLabel(e.V) != "b" || e.Label != "x" {
		t.Fatalf("delta=0 changed the surviving edge: %v", u[0])
	}
}

// TestRelaxedPrefixProperty: a smaller maxSize only cuts the enumeration
// short, it never reorders it — Relaxed(q, δ, m) is the first m members of
// Relaxed(q, δ, 0). The query plan relies on this to serve untruncated
// confirmation and MaxRelaxed-capped pruning from one derivation.
func TestRelaxedPrefixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		for d := 0; d <= g.NumEdges()+1; d++ {
			full := Relaxed(g, d, 0)
			for _, m := range []int{1, 2, len(full) / 2, len(full), len(full) + 1} {
				if m < 1 {
					continue
				}
				got := Relaxed(g, d, m)
				if len(got) != min(m, len(full)) {
					t.Logf("seed %d δ=%d m=%d: %d graphs, full has %d", seed, d, m, len(got), len(full))
					return false
				}
				for i := range got {
					if graph.CanonicalCode(got[i]) != graph.CanonicalCode(full[i]) {
						t.Logf("seed %d δ=%d m=%d: member %d differs", seed, d, m, i)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomGraph draws a small two-label graph with nv+2 edge attempts.
func randomGraph(rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder("r")
	nv := 3 + rng.Intn(4)
	for i := 0; i < nv; i++ {
		b.AddVertex(graph.Label([]string{"a", "b"}[rng.Intn(2)]))
	}
	for tries, added := 0, 0; added < nv+2 && tries < 50; tries++ {
		u := graph.VertexID(rng.Intn(nv))
		v := graph.VertexID(rng.Intn(nv))
		if u == v {
			continue
		}
		if _, err := b.AddEdge(u, v, ""); err == nil {
			added++
		}
	}
	return b.Build()
}

func TestRelaxedEdgeCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng)
		if g.NumEdges() == 0 {
			return true
		}
		d := 1 + rng.Intn(2)
		if d > g.NumEdges() {
			d = g.NumEdges()
		}
		seen := map[string]bool{}
		for _, rq := range Relaxed(g, d, 0) {
			if rq.NumEdges() != g.NumEdges()-d {
				return false
			}
			code := graph.CanonicalCode(rq)
			if seen[code] {
				return false // dedup violated
			}
			seen[code] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
