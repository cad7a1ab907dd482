package iso

import (
	"math/rand"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
)

// bruteForceExists enumerates all injective vertex maps.
func bruteForceExists(p, t *graph.Graph, mask *graph.EdgeSet) bool {
	n, m := p.NumVertices(), t.NumVertices()
	if n > m {
		return false
	}
	assign := make([]graph.VertexID, n)
	used := make([]bool, m)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return true
		}
		for tv := 0; tv < m; tv++ {
			if used[tv] || p.VertexLabel(graph.VertexID(i)) != t.VertexLabel(graph.VertexID(tv)) {
				continue
			}
			ok := true
			for _, h := range p.Neighbors(graph.VertexID(i)) {
				if int(h.To) >= i {
					continue
				}
				id, exists := t.EdgeBetween(graph.VertexID(tv), assign[h.To])
				if !exists || (mask != nil && !mask.Contains(id)) || t.EdgeLabel(id) != p.EdgeLabel(h.Edge) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assign[i] = graph.VertexID(tv)
			used[tv] = true
			if rec(i + 1) {
				return true
			}
			used[tv] = false
		}
		return false
	}
	return rec(0)
}

func bruteForceCount(p, t *graph.Graph, mask *graph.EdgeSet) int {
	n, m := p.NumVertices(), t.NumVertices()
	if n > m {
		return 0
	}
	count := 0
	assign := make([]graph.VertexID, n)
	used := make([]bool, m)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			count++
			return
		}
		for tv := 0; tv < m; tv++ {
			if used[tv] || p.VertexLabel(graph.VertexID(i)) != t.VertexLabel(graph.VertexID(tv)) {
				continue
			}
			ok := true
			for _, h := range p.Neighbors(graph.VertexID(i)) {
				if int(h.To) >= i {
					continue
				}
				id, exists := t.EdgeBetween(graph.VertexID(tv), assign[h.To])
				if !exists || (mask != nil && !mask.Contains(id)) || t.EdgeLabel(id) != p.EdgeLabel(h.Edge) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			assign[i] = graph.VertexID(tv)
			used[tv] = true
			rec(i + 1)
			used[tv] = false
		}
	}
	rec(0)
	return count
}

func randomGraph(rng *rand.Rand, nv, ne int, vlabels, elabels []graph.Label) *graph.Graph {
	b := graph.NewBuilder("rnd")
	for i := 0; i < nv; i++ {
		b.AddVertex(vlabels[rng.Intn(len(vlabels))])
	}
	for tries, added := 0, 0; added < ne && tries < 20*ne; tries++ {
		u := graph.VertexID(rng.Intn(nv))
		v := graph.VertexID(rng.Intn(nv))
		if u == v {
			continue
		}
		if _, err := b.AddEdge(u, v, elabels[rng.Intn(len(elabels))]); err == nil {
			added++
		}
	}
	return b.Build()
}

func TestExistsAgainstBruteForce(t *testing.T) {
	vlab := []graph.Label{"a", "b"}
	elab := []graph.Label{"", "x"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 4+rng.Intn(4), 3+rng.Intn(7), vlab, elab)
		pg := randomGraph(rng, 2+rng.Intn(3), 1+rng.Intn(3), vlab, elab)
		return Exists(pg, tg, nil) == bruteForceExists(pg, tg, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExistsWithMaskAgainstBruteForce(t *testing.T) {
	vlab := []graph.Label{"a", "b"}
	elab := []graph.Label{""}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 4+rng.Intn(4), 4+rng.Intn(6), vlab, elab)
		pg := randomGraph(rng, 2+rng.Intn(3), 1+rng.Intn(3), vlab, elab)
		mask := graph.NewEdgeSet(tg.NumEdges())
		for e := 0; e < tg.NumEdges(); e++ {
			if rng.Intn(2) == 0 {
				mask.Add(graph.EdgeID(e))
			}
		}
		return Exists(pg, tg, &mask) == bruteForceExists(pg, tg, &mask)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountAgainstBruteForce(t *testing.T) {
	vlab := []graph.Label{"a", "b"}
	elab := []graph.Label{""}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 4+rng.Intn(3), 3+rng.Intn(5), vlab, elab)
		pg := randomGraph(rng, 2+rng.Intn(2), 1+rng.Intn(2), vlab, elab)
		return Count(pg, tg, nil, 0) == bruteForceCount(pg, tg, nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// paperQueryAnd002 builds the paper's Figure 1 query q and graph 002.
func paperQueryAnd002(t *testing.T) (q, g002 *graph.Graph) {
	t.Helper()
	// q: vertices a, a, b, b, c — edges labeled "" forming the house-like
	// shape. We reproduce the shape: a-a, a-b, a-b, b-b, b-c (5 edges).
	qb := graph.NewBuilder("q")
	a1 := qb.AddVertex("a")
	a2 := qb.AddVertex("a")
	b1 := qb.AddVertex("b")
	b2 := qb.AddVertex("b")
	c := qb.AddVertex("c")
	qb.MustAddEdge(a1, a2, "")
	qb.MustAddEdge(a1, b1, "")
	qb.MustAddEdge(a2, b2, "")
	qb.MustAddEdge(b1, b2, "")
	qb.MustAddEdge(b2, c, "")

	gb := graph.NewBuilder("002")
	ga1 := gb.AddVertex("a")
	ga2 := gb.AddVertex("a")
	gb1 := gb.AddVertex("b")
	gb2 := gb.AddVertex("b")
	gc := gb.AddVertex("c")
	gb.MustAddEdge(ga1, ga2, "") // e1
	gb.MustAddEdge(ga1, gb1, "") // e2
	gb.MustAddEdge(ga2, gb2, "") // e3
	gb.MustAddEdge(gb1, gb2, "") // e4
	gb.MustAddEdge(gb2, gc, "")  // e5
	return qb.Build(), gb.Build()
}

func TestPaperFigure1(t *testing.T) {
	q, g := paperQueryAnd002(t)
	if !Exists(q, g, nil) {
		t.Fatal("q must embed in the full graph 002")
	}
	// World (1) of Figure 2: e5 absent — q does not embed (needs c), but
	// q minus its c-edge does.
	mask := graph.FullEdgeSet(g.NumEdges())
	mask.Remove(4) // e5
	if Exists(q, g, &mask) {
		t.Fatal("q must not embed when e5 is absent")
	}
	rq := deleteEdges(q, []graph.EdgeID{4}).DropIsolated()
	if !Exists(rq, g, &mask) {
		t.Fatal("relaxed q (c-edge deleted) must embed in world (1)")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Pattern: two disjoint edges a-b, a-b. Target: path a-b-a-b.
	pb := graph.NewBuilder("p")
	pa1 := pb.AddVertex("a")
	pb1 := pb.AddVertex("b")
	pa2 := pb.AddVertex("a")
	pb2 := pb.AddVertex("b")
	pb.MustAddEdge(pa1, pb1, "")
	pb.MustAddEdge(pa2, pb2, "")
	p := pb.Build()

	tb := graph.NewBuilder("t")
	ta1 := tb.AddVertex("a")
	tb1 := tb.AddVertex("b")
	ta2 := tb.AddVertex("a")
	tb2 := tb.AddVertex("b")
	tb.MustAddEdge(ta1, tb1, "")
	tb.MustAddEdge(tb1, ta2, "")
	tb.MustAddEdge(ta2, tb2, "")
	tg := tb.Build()

	if !Exists(p, tg, nil) {
		t.Fatal("disconnected pattern should embed (edges {0,1} and {2,3})")
	}
	if got, want := Count(p, tg, nil, 0), bruteForceCount(p, tg, nil); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
}

func TestEdgeSetsDedup(t *testing.T) {
	// Pattern a-a in triangle of a's: 3 edges, each found twice (two vertex
	// orders) -> 3 distinct edge sets from 6 embeddings.
	pb := graph.NewBuilder("p")
	x := pb.AddVertex("a")
	y := pb.AddVertex("a")
	pb.MustAddEdge(x, y, "")
	p := pb.Build()

	tb := graph.NewBuilder("t")
	v0 := tb.AddVertex("a")
	v1 := tb.AddVertex("a")
	v2 := tb.AddVertex("a")
	tb.MustAddEdge(v0, v1, "")
	tb.MustAddEdge(v1, v2, "")
	tb.MustAddEdge(v0, v2, "")
	tg := tb.Build()

	if got := len(FindAll(p, tg, nil, 0)); got != 6 {
		t.Fatalf("embeddings = %d, want 6", got)
	}
	sets := EdgeSets(p, tg, nil, 0)
	if len(sets) != 3 {
		t.Fatalf("distinct edge sets = %d, want 3", len(sets))
	}
	for _, s := range sets {
		if s.Count() != 1 {
			t.Fatalf("each edge set should have exactly 1 edge, got %d", s.Count())
		}
	}
}

func TestEdgeSetsLimit(t *testing.T) {
	pb := graph.NewBuilder("p")
	x := pb.AddVertex("a")
	y := pb.AddVertex("a")
	pb.MustAddEdge(x, y, "")
	p := pb.Build()
	tb := graph.NewBuilder("t")
	prev := tb.AddVertex("a")
	for i := 0; i < 9; i++ {
		next := tb.AddVertex("a")
		tb.MustAddEdge(prev, next, "")
		prev = next
	}
	tg := tb.Build()
	if got := len(EdgeSets(p, tg, nil, 4)); got != 4 {
		t.Fatalf("limited edge sets = %d, want 4", got)
	}
}

// TestEdgeSetsMatchesKeyedDedup holds EdgeSets to the string-keyed dedup
// over ForEach it replaced: the same sets in the same first-seen order, at
// every cap and under a world mask.
func TestEdgeSetsMatchesKeyedDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		tg := randomGraph(rng, 9, 16, []graph.Label{"a", "b"}, []graph.Label{""})
		p := connectedQuery(tg, 1+rng.Intn(3))
		mask := graph.NewEdgeSet(tg.NumEdges())
		for e := 0; e < tg.NumEdges(); e++ {
			if rng.Intn(4) > 0 {
				mask.Add(graph.EdgeID(e))
			}
		}
		for _, m := range []*graph.EdgeSet{nil, &mask} {
			var ref []string
			seen := map[string]bool{}
			ForEach(p, tg, m, func(e *Embedding) bool {
				if k := e.Edges.Key(); !seen[k] {
					seen[k] = true
					ref = append(ref, k)
				}
				return true
			})
			for _, limit := range []int{0, -1, 1, 2, len(ref), len(ref) + 1} {
				want := ref
				if limit > 0 && limit < len(ref) {
					want = ref[:limit]
				}
				got := EdgeSets(p, tg, m, limit)
				if len(got) != len(want) {
					t.Fatalf("trial %d limit %d: %d sets, want %d", trial, limit, len(got), len(want))
				}
				for i, s := range got {
					if s.Key() != want[i] {
						t.Fatalf("trial %d limit %d: set %d differs from the keyed dedup's", trial, limit, i)
					}
				}
				checked += len(got)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no edge set compared")
	}
}

func TestEmbeddingEdgesConsistent(t *testing.T) {
	q, g := paperQueryAnd002(t)
	for _, em := range FindAll(q, g, nil, 0) {
		if em.Edges.Count() != q.NumEdges() {
			t.Fatalf("embedding uses %d edges, want %d", em.Edges.Count(), q.NumEdges())
		}
		for _, e := range q.Edges() {
			id, ok := g.EdgeBetween(em.VMap[e.U], em.VMap[e.V])
			if !ok || !em.Edges.Contains(id) {
				t.Fatal("embedding edge set inconsistent with vertex map")
			}
		}
	}
}

func TestLabelMismatchRejected(t *testing.T) {
	pb := graph.NewBuilder("p")
	x := pb.AddVertex("a")
	y := pb.AddVertex("b")
	pb.MustAddEdge(x, y, "L1")
	p := pb.Build()
	tb := graph.NewBuilder("t")
	u := tb.AddVertex("a")
	v := tb.AddVertex("b")
	tb.MustAddEdge(u, v, "L2")
	tg := tb.Build()
	if Exists(p, tg, nil) {
		t.Fatal("edge label mismatch must prevent matching")
	}
}

func TestEmptyPattern(t *testing.T) {
	p := graph.NewBuilder("empty").Build()
	tb := graph.NewBuilder("t")
	tb.AddVertex("a")
	tg := tb.Build()
	if !Exists(p, tg, nil) {
		t.Fatal("empty pattern embeds trivially")
	}
	if got := Count(p, tg, nil, 0); got != 1 {
		t.Fatalf("empty pattern count = %d, want 1", got)
	}
}

func TestPatternLargerThanTarget(t *testing.T) {
	pb := graph.NewBuilder("p")
	x := pb.AddVertex("a")
	y := pb.AddVertex("a")
	z := pb.AddVertex("a")
	pb.MustAddEdge(x, y, "")
	pb.MustAddEdge(y, z, "")
	p := pb.Build()
	tb := graph.NewBuilder("t")
	u := tb.AddVertex("a")
	v := tb.AddVertex("a")
	tb.MustAddEdge(u, v, "")
	tg := tb.Build()
	if Exists(p, tg, nil) {
		t.Fatal("pattern larger than target cannot embed")
	}
}

func TestFindAllLimit(t *testing.T) {
	pb := graph.NewBuilder("p")
	x := pb.AddVertex("a")
	y := pb.AddVertex("a")
	pb.MustAddEdge(x, y, "")
	p := pb.Build()
	tb := graph.NewBuilder("t")
	v0 := tb.AddVertex("a")
	v1 := tb.AddVertex("a")
	v2 := tb.AddVertex("a")
	tb.MustAddEdge(v0, v1, "")
	tb.MustAddEdge(v1, v2, "")
	tb.MustAddEdge(v0, v2, "")
	tg := tb.Build()
	if got := len(FindAll(p, tg, nil, 2)); got != 2 {
		t.Fatalf("limited FindAll = %d, want 2", got)
	}
}

func TestMaxDisjointGreedy(t *testing.T) {
	mk := func(ids ...graph.EdgeID) graph.EdgeSet {
		s := graph.NewEdgeSet(16)
		for _, id := range ids {
			s.Add(id)
		}
		return s
	}
	sets := []graph.EdgeSet{mk(0, 1), mk(1, 2), mk(2, 3), mk(4, 5)}
	chosen := MaxDisjointGreedy(sets)
	// {0,1}, {2,3}, {4,5} are mutually disjoint: greedy should find 3.
	if len(chosen) != 3 {
		t.Fatalf("chose %d sets (%v), want 3", len(chosen), chosen)
	}
	for i := 0; i < len(chosen); i++ {
		for j := i + 1; j < len(chosen); j++ {
			if sets[chosen[i]].Intersects(sets[chosen[j]]) {
				t.Fatal("greedy selection not disjoint")
			}
		}
	}
	if len(MaxDisjointGreedy(nil)) != 0 {
		t.Fatal("empty input should produce empty output")
	}
}

func TestMaskedEmbeddingsSubsetOfUnmasked(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 5, 7, []graph.Label{"a"}, []graph.Label{""})
		pg := randomGraph(rng, 3, 2, []graph.Label{"a"}, []graph.Label{""})
		mask := graph.NewEdgeSet(tg.NumEdges())
		for e := 0; e < tg.NumEdges(); e++ {
			if rng.Intn(3) > 0 {
				mask.Add(graph.EdgeID(e))
			}
		}
		masked := EdgeSets(pg, tg, &mask, 0)
		all := EdgeSets(pg, tg, nil, 0)
		keys := make(map[string]bool, len(all))
		for _, s := range all {
			keys[s.Key()] = true
		}
		for _, s := range masked {
			if !keys[s.Key()] {
				return false
			}
			// Every used edge must be alive in the mask.
			if !mask.ContainsAll(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
