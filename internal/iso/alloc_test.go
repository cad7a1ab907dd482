package iso

import (
	"math/rand"
	"testing"

	"probgraph/internal/graph"
)

// TestSearchSteadyStateAllocs pins the searches to their pooled scratch:
// once the pool is warm, Exists, ExistsWithin and Count allocate nothing,
// with or without a world mask, and ForEach allocates nothing per
// embedding — it refills one Embedding for each. A pair the edge types
// refuse allocates nothing either, in ExistsWithin and EdgeSetsWithin.
func TestSearchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	rng := rand.New(rand.NewSource(3))
	tg := randomGraph(rng, 12, 24, []graph.Label{"a", "b"}, []graph.Label{""})
	p := connectedQuery(tg, 5)
	// A world keeping the first embedding's edges and every even edge.
	embs := FindAll(p, tg, nil, 0)
	if len(embs) < 2 {
		t.Fatalf("%d embeddings; the pin is vacuous", len(embs))
	}
	mask := embs[0].Edges.Clone()
	for e := 0; e < tg.NumEdges(); e += 2 {
		mask.Add(graph.EdgeID(e))
	}
	visit := func(*Embedding) bool { return true }
	// A path a–b–a–b–a against a target whose edges only join equal labels:
	// enough edges of label "" and vertices of each label, no a–b edge.
	path, split := graph.NewBuilder("path"), graph.NewBuilder("split")
	for v := range 5 {
		path.AddVertex([]graph.Label{"a", "b"}[v%2])
		split.AddVertex([]graph.Label{"a", "b"}[v%2])
		if v > 0 {
			path.MustAddEdge(graph.VertexID(v-1), graph.VertexID(v), "")
		}
	}
	split.MustAddEdge(0, 2, "")
	split.MustAddEdge(2, 4, "")
	split.MustAddEdge(0, 4, "")
	split.MustAddEdge(1, 3, "")
	rp, rt := path.Build(), split.Build()
	if feasible(rp, rt, nil, 2, true) {
		t.Fatal("the edge types do not refuse the pair; the pin is vacuous")
	}
	for name, search := range map[string]func(){
		"Exists":                          func() { Exists(p, tg, nil) },
		"Exists masked":                   func() { Exists(p, tg, &mask) },
		"ExistsWithin":                    func() { ExistsWithin(p, tg, nil, 2) },
		"ExistsWithin masked":             func() { ExistsWithin(p, tg, &mask, 2) },
		"Count":                           func() { Count(p, tg, nil, 0) },
		"Count masked":                    func() { Count(p, tg, &mask, 0) },
		"ForEach":                         func() { ForEach(p, tg, nil, visit) },
		"ExistsWithin refused by types":   func() { ExistsWithin(rp, rt, nil, 2) },
		"EdgeSetsWithin refused by types": func() { EdgeSetsWithin(rp, rt, 2, 0) },
	} {
		if n := testing.AllocsPerRun(100, search); n != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, n)
		}
	}
}

// TestEdgeSetsSteadyStateAllocs: EdgeSets deduplicates on the pooled image
// table, so once the pool is warm a call allocates its result and nothing
// else — one word slab and one slice of set headers — however many vertex
// maps land on the same set.
func TestEdgeSetsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	rng := rand.New(rand.NewSource(3))
	tg := randomGraph(rng, 12, 24, []graph.Label{"a", "b"}, []graph.Label{""})
	p := connectedQuery(tg, 3)
	if n := Count(p, tg, nil, 0); n <= len(EdgeSets(p, tg, nil, 0)) || len(EdgeSets(p, tg, nil, 0)) < 3 {
		t.Fatalf("%d embeddings on %d sets; the pin needs repeated sets", n, len(EdgeSets(p, tg, nil, 0)))
	}
	for _, limit := range []int{0, 2} {
		if n := testing.AllocsPerRun(100, func() { EdgeSets(p, tg, nil, limit) }); n != 2 {
			t.Errorf("EdgeSets(limit %d) allocates %v times per call, want 2", limit, n)
		}
	}
}
