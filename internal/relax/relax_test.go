package relax

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

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

// relaxedByCodes is the enumeration Members replaced, kept as its
// reference: canonical-code every deletion set, keep the first of each code.
func relaxedByCodes(q *graph.Graph, delta, maxSize int) (u []*graph.Graph, drops [][]graph.EdgeID) {
	ne := q.NumEdges()
	seen := make(map[string]bool)
	drop := make([]graph.EdgeID, 0, delta)
	var rec func(start graph.EdgeID)
	rec = func(start graph.EdgeID) {
		if len(u) >= maxSize {
			return
		}
		if len(drop) == delta {
			rq := deleteEdges(q, drop).DropIsolated()
			if code := graph.CanonicalCode(rq); !seen[code] {
				seen[code] = true
				u, drops = append(u, rq), append(drops, append([]graph.EdgeID(nil), drop...))
			}
			return
		}
		remaining := delta - len(drop)
		for e := start; int(e) <= ne-remaining; e++ {
			drop = append(drop, e)
			rec(e + 1)
			drop = drop[:len(drop)-1]
		}
	}
	rec(0)
	return u, drops
}

// symmetric builds a uniform-label graph on n vertices from (u, v) pairs —
// the queries where almost every deletion set shares its fingerprint with
// another, so the canonical-code fallback decides nearly every class.
func symmetric(n int, edges [][2]int) *graph.Graph {
	b := graph.NewBuilder("sym")
	b.AddVertices(n, "a")
	for _, e := range edges {
		b.MustAddEdge(graph.VertexID(e[0]), graph.VertexID(e[1]), "")
	}
	return b.Build()
}

// TestRelaxedMatchesCanonicalEnumeration: the fingerprint fast path keeps
// exactly the members, in exactly the order, of coding every deletion set;
// each mask reproduces its member; and a size cap cuts a prefix.
func TestRelaxedMatchesCanonicalEnumeration(t *testing.T) {
	var queries []*graph.Graph
	cycle := func(n int) (edges [][2]int) {
		for i := 0; i < n; i++ {
			edges = append(edges, [2]int{i, (i + 1) % n})
		}
		return edges
	}
	var k5, star, k33 [][2]int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5 = append(k5, [2]int{i, j})
		}
	}
	for i := 1; i < 8; i++ {
		star = append(star, [2]int{0, i})
	}
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			k33 = append(k33, [2]int{i, j})
		}
	}
	// Two disjoint triangles and a path: classes that differ only in which
	// component an edge left.
	twoTriangles := [][2]int{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {6, 7}, {7, 8}}
	// The cube, 3-regular and vertex-transitive.
	cube := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {4, 5}, {5, 6}, {6, 7}, {4, 7}, {0, 4}, {1, 5}, {2, 6}, {3, 7}}
	queries = append(queries, symmetric(8, cycle(8)), symmetric(5, k5), symmetric(8, star), symmetric(6, k33),
		symmetric(9, twoTriangles), symmetric(8, cube), paperQuery())
	for seed := int64(0); seed < 30; seed++ {
		queries = append(queries, randomGraph(rand.New(rand.NewSource(seed))))
	}
	for qi, q := range queries {
		for delta := 1; delta <= 3 && delta < q.NumEdges(); delta++ {
			want, drops := relaxedByCodes(q, delta, DefaultMaxSize)
			got, deleted := Relaxed(q, delta, 0), Members(q, delta, 0)
			if len(got) != len(want) || len(deleted) != len(got) {
				t.Fatalf("query %d δ=%d: %d members and %d masks, reference has %d", qi, delta, len(got), len(deleted), len(want))
			}
			for i := range got {
				if graph.CanonicalCode(got[i]) != graph.CanonicalCode(want[i]) {
					t.Fatalf("query %d δ=%d: member %d is %v, reference %v", qi, delta, i, got[i], want[i])
				}
				if !slices.Equal(deleted[i].Slice(), drops[i]) {
					t.Fatalf("query %d δ=%d: member %d deletes %v, reference %v", qi, delta, i, deleted[i].Slice(), drops[i])
				}
				if rebuilt := Member(q, deleted[i]); rebuilt.String() != got[i].String() {
					t.Fatalf("query %d δ=%d: mask %v rebuilds %v, member is %v", qi, delta, deleted[i].Slice(), rebuilt, got[i])
				}
			}
			for _, m := range []int{1, len(want) / 2, len(want) + 1} {
				capped, _ := relaxedByCodes(q, delta, max(m, 1))
				fast := Relaxed(q, delta, max(m, 1))
				if len(fast) != len(capped) {
					t.Fatalf("query %d δ=%d cap %d: %d members, reference %d", qi, delta, m, len(fast), len(capped))
				}
				if masks := Members(q, delta, max(m, 1)); !slices.EqualFunc(masks, deleted[:len(fast)], graph.EdgeSet.Equal) {
					t.Fatalf("query %d δ=%d cap %d: masks are not the uncapped prefix", qi, delta, m)
				}
				for i := range fast {
					if fast[i].String() != got[i].String() {
						t.Fatalf("query %d δ=%d cap %d: member %d is not the uncapped one", qi, delta, m, i)
					}
				}
			}
		}
	}
}

// TestRelaxedMembersEdgeCases: the two shapes Members answers without enumerating.
func TestRelaxedMembersEdgeCases(t *testing.T) {
	q := paperQuery()
	u, deleted := Relaxed(q, 0, 0), Members(q, 0, 0)
	if len(u) != 1 || u[0] != q || len(deleted) != 1 || deleted[0].Count() != 0 || deleted[0].Len() != q.NumEdges() {
		t.Fatalf("δ=0: members %v, masks %v", u, deleted)
	}
	u, deleted = Relaxed(q, q.NumEdges()+2, 0), Members(q, q.NumEdges()+2, 0)
	if len(u) != 1 || u[0].NumVertices() != 0 || len(deleted) != 1 || deleted[0].Count() != q.NumEdges() {
		t.Fatalf("δ>|E|: members %v, masks %v", u, deleted)
	}
	if rq := Member(q, deleted[0]); rq.NumVertices() != 0 || rq.NumEdges() != 0 {
		t.Fatalf("δ>|E|: the full mask rebuilds %v", rq)
	}
}

// deleteEdges is g without the edges in drop, every vertex kept: the edge
// subgraph of the other edges.
func deleteEdges(g *graph.Graph, drop []graph.EdgeID) *graph.Graph {
	gone := make([]bool, g.NumEdges())
	for _, id := range drop {
		gone[id] = true
	}
	var keep []graph.EdgeID
	for id, d := range gone {
		if !d {
			keep = append(keep, graph.EdgeID(id))
		}
	}
	return g.EdgeSubgraph(keep)
}

// TestMemberMatchesDeleteThenDrop: Member, which builds its graph once, is
// deleteEdges(q, d).DropIsolated() — name, vertex labels in order, edge
// list and canonical code — for every deletion set at δ 0–3 of the
// symmetric, paper, random and isolated-vertex queries.
func TestMemberMatchesDeleteThenDrop(t *testing.T) {
	var k5 [][2]int
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5 = append(k5, [2]int{i, j})
		}
	}
	cube := [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {4, 5}, {5, 6}, {6, 7}, {4, 7}, {0, 4}, {1, 5}, {2, 6}, {3, 7}}
	isolated := graph.NewBuilder("iso")
	isolated.AddVertices(2, "b")
	isolated.AddVertices(3, "a")
	isolated.MustAddEdge(1, 2, "x")
	isolated.MustAddEdge(2, 4, "")
	isolated.MustAddEdge(4, 1, "y")
	queries := []*graph.Graph{symmetric(5, k5), symmetric(8, cube), paperQuery(), isolated.Build()}
	for seed := int64(0); seed < 30; seed++ {
		queries = append(queries, randomGraph(rand.New(rand.NewSource(seed))))
	}
	sets := 0
	for qi, q := range queries {
		ne := q.NumEdges()
		for delta := 0; delta <= 3 && delta <= ne; delta++ {
			var rec func(d graph.EdgeSet, start, left int)
			rec = func(d graph.EdgeSet, start, left int) {
				if left > 0 {
					for e := start; e <= ne-left; e++ {
						d.Add(graph.EdgeID(e))
						rec(d, e+1, left-1)
						d.Remove(graph.EdgeID(e))
					}
					return
				}
				sets++
				got, want := Member(q, d), deleteEdges(q, d.Slice()).DropIsolated()
				labels := func(g *graph.Graph) (ls []graph.Label) {
					for v := range g.NumVertices() {
						ls = append(ls, g.VertexLabel(graph.VertexID(v)))
					}
					return ls
				}
				if got.Name() != want.Name() || !slices.Equal(labels(got), labels(want)) || !slices.Equal(got.Edges(), want.Edges()) ||
					graph.CanonicalCode(got) != graph.CanonicalCode(want) {
					t.Fatalf("query %d deleting %v: Member is %v, want %v", qi, d.Slice(), got, want)
				}
			}
			rec(graph.NewEdgeSet(ne), 0, delta)
		}
	}
	if sets < 1000 {
		t.Fatalf("only %d deletion sets compared", sets)
	}
}

// TestEnumerateWalkBudget: the walk over deletion sets stops at its budget
// and says so. A 24-edge single-label star at δ 12 has C(24, 12) ≈ 2.7 M
// deletion sets, all isomorphic; walked in full at ≈ 7 µs a set it takes
// about 19 s to keep its one member, bounded ≈ 0.2 s (≈ 2.7 s under the
// race detector, 2 vCPUs). Below the budget and the size cap U is
// complete: the 12-edge star at δ 6 walks all 924 sets. Only a walk that
// reached every set is complete, and a cap that binds is not.
func TestEnumerateWalkBudget(t *testing.T) {
	star := func(n int) *graph.Graph {
		edges := make([][2]int, n)
		for i := range edges {
			edges[i] = [2]int{0, i + 1}
		}
		return symmetric(n+1, edges)
	}
	start := time.Now()
	deleted, complete := Enumerate(star(24), 12, 0)
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("24-edge star at δ 12: the walk took %v", took)
	}
	if complete || len(deleted) != 1 || !slices.Equal(deleted[0].Slice(), []graph.EdgeID{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}) {
		t.Fatalf("24-edge star at δ 12: %d members (first %v), complete %v; want the first deletion set alone, incomplete", len(deleted), deleted[0].Slice(), complete)
	}
	if deleted, complete := Enumerate(star(12), 6, 0); !complete || len(deleted) != 1 {
		t.Fatalf("12-edge star at δ 6: %d members, complete %v", len(deleted), complete)
	}
	q := paperQuery()
	for delta := 0; delta <= q.NumEdges()+1; delta++ {
		full, complete := Enumerate(q, delta, 0)
		if !complete {
			t.Fatalf("paper query δ=%d: an uncapped walk of %d members is incomplete", delta, len(full))
		}
		if _, complete := Enumerate(q, delta, len(full)+1); !complete {
			t.Fatalf("paper query δ=%d: a cap above |U| = %d binds", delta, len(full))
		}
		if len(full) > 1 {
			if _, complete := Enumerate(q, delta, len(full)-1); complete {
				t.Fatalf("paper query δ=%d: a cap below |U| = %d reports U complete", delta, len(full))
			}
		}
	}
}
