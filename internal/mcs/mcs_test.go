package mcs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
)

func randomGraph(rng *rand.Rand, nv, ne int) *graph.Graph {
	b := graph.NewBuilder("rnd")
	for i := 0; i < nv; i++ {
		b.AddVertex(graph.Label([]string{"a", "b"}[rng.Intn(2)]))
	}
	for tries, added := 0, 0; added < ne && tries < 30*ne; tries++ {
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

// bruteDistance checks every edge subset of q (largest first).
func bruteDistance(q, t *graph.Graph, mask *graph.EdgeSet, maxDelta int) int {
	ne := q.NumEdges()
	for d := 0; d <= maxDelta && d <= ne; d++ {
		keepSize := ne - d
		// Enumerate all subsets of size keepSize.
		idx := make([]graph.EdgeID, 0, keepSize)
		var rec func(start graph.EdgeID) bool
		rec = func(start graph.EdgeID) bool {
			if len(idx) == keepSize {
				sub := q.EdgeSubgraph(idx).DropIsolated()
				return iso.Exists(sub, t, mask)
			}
			for e := start; int(e) < ne; e++ {
				idx = append(idx, e)
				if rec(e + 1) {
					return true
				}
				idx = idx[:len(idx)-1]
			}
			return false
		}
		if keepSize == 0 {
			return d
		}
		if rec(0) {
			return d
		}
	}
	return maxDelta + 1
}

func TestDistanceAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tg := randomGraph(rng, 5+rng.Intn(3), 5+rng.Intn(4))
		q := randomGraph(rng, 3+rng.Intn(2), 2+rng.Intn(3))
		maxDelta := 2
		got := Distance(q, tg, nil, maxDelta)
		want := bruteDistance(q, tg, nil, maxDelta)
		if got != want {
			t.Logf("seed %d: got %d want %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceZeroForSubgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tg := randomGraph(rng, 6, 8)
	if tg.NumEdges() < 3 {
		t.Skip("unlucky generation")
	}
	sub := tg.EdgeSubgraph([]graph.EdgeID{0, 1, 2}).DropIsolated()
	if d := Distance(sub, tg, nil, 3); d != 0 {
		t.Fatalf("subgraph distance = %d, want 0", d)
	}
	if !Similar(sub, tg, nil, 0) {
		t.Fatal("subgraph must be similar at δ=0")
	}
}

func TestDistanceExceedsBudget(t *testing.T) {
	// Query of 3 labeled edges vs a target sharing nothing.
	qb := graph.NewBuilder("q")
	v0 := qb.AddVertex("x")
	v1 := qb.AddVertex("x")
	v2 := qb.AddVertex("x")
	v3 := qb.AddVertex("x")
	qb.MustAddEdge(v0, v1, "")
	qb.MustAddEdge(v1, v2, "")
	qb.MustAddEdge(v2, v3, "")
	q := qb.Build()
	tb := graph.NewBuilder("t")
	u0 := tb.AddVertex("y")
	u1 := tb.AddVertex("y")
	tb.MustAddEdge(u0, u1, "")
	tg := tb.Build()
	if d := Distance(q, tg, nil, 2); d != 3 {
		t.Fatalf("distance = %d, want maxDelta+1 = 3", d)
	}
	if Similar(q, tg, nil, 2) {
		t.Fatal("must not be similar within 2")
	}
}

func TestDistanceWithMask(t *testing.T) {
	// Path a-b-c; mask kills the b-c edge. Query = the full path.
	tb := graph.NewBuilder("t")
	v0 := tb.AddVertex("a")
	v1 := tb.AddVertex("b")
	v2 := tb.AddVertex("c")
	tb.MustAddEdge(v0, v1, "")
	tb.MustAddEdge(v1, v2, "")
	tg := tb.Build()
	mask := graph.FullEdgeSet(2)
	mask.Remove(1)
	if d := Distance(tg, tg, &mask, 2); d != 1 {
		t.Fatalf("masked distance = %d, want 1", d)
	}
}
