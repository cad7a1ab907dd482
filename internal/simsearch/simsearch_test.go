package simsearch

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/mcs"
	"probgraph/internal/relax"
)

func randomDB(rng *rand.Rand, n int) []*graph.Graph {
	var dbc []*graph.Graph
	for i := 0; i < n; i++ {
		b := graph.NewBuilder("g")
		nv := 5 + rng.Intn(4)
		for v := 0; v < nv; v++ {
			b.AddVertex(graph.Label([]string{"a", "b", "c"}[rng.Intn(3)]))
		}
		for tries, added := 0, 0; added < nv+3 && tries < 80; tries++ {
			u := graph.VertexID(rng.Intn(nv))
			v := graph.VertexID(rng.Intn(nv))
			if u == v {
				continue
			}
			if _, err := b.AddEdge(u, v, ""); err == nil {
				added++
			}
		}
		dbc = append(dbc, b.Build())
	}
	return dbc
}

func extractSubquery(rng *rand.Rand, g *graph.Graph, edges int) *graph.Graph {
	if edges > g.NumEdges() {
		edges = g.NumEdges()
	}
	ids := rng.Perm(g.NumEdges())[:edges]
	eids := make([]graph.EdgeID, edges)
	for i, id := range ids {
		eids[i] = graph.EdgeID(id)
	}
	return g.EdgeSubgraph(eids).DropIsolated()
}

// TestFilterSoundness: the filter must never drop a graph that truly
// matches (no false dismissal) — the defining property of Grafil-style
// pruning.
func TestFilterSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 8)
		ix := BuildIndex(dbc, DefaultFeatures(dbc, 64))
		q := extractSubquery(rng, dbc[rng.Intn(len(dbc))], 3+rng.Intn(3))
		if q.NumEdges() == 0 {
			return true
		}
		delta := rng.Intn(3)
		cand := make(map[int]bool)
		for _, gi := range candidates(ix, q, delta) {
			cand[gi] = true
		}
		for gi, g := range dbc {
			if mcs.Similar(q, g, nil, delta) && !cand[gi] {
				t.Logf("seed %d: graph %d similar but filtered out", seed, gi)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSCqMatchesExactSimilarity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 6)
		ix := BuildIndex(dbc, DefaultFeatures(dbc, 64))
		q := extractSubquery(rng, dbc[0], 4)
		if q.NumEdges() == 0 {
			return true
		}
		delta := 1
		confirmed, filterCount := ix.SCq(q, delta, 1)
		inConf := make(map[int]bool)
		for _, gi := range confirmed {
			inConf[gi] = true
		}
		for gi, g := range dbc {
			if mcs.Similar(q, g, nil, delta) != inConf[gi] {
				return false
			}
		}
		return filterCount >= len(confirmed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQueryFromDBAlwaysSurvives(t *testing.T) {
	// A query extracted verbatim from graph 0 must keep graph 0 at any δ.
	rng := rand.New(rand.NewSource(5))
	dbc := randomDB(rng, 5)
	ix := BuildIndex(dbc, DefaultFeatures(dbc, 64))
	q := extractSubquery(rng, dbc[0], 4)
	if q.NumEdges() == 0 {
		t.Skip("degenerate query")
	}
	for delta := 0; delta <= 2; delta++ {
		found := false
		for _, gi := range candidates(ix, q, delta) {
			if gi == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("delta %d: source graph filtered out", delta)
		}
		if !ix.Confirm(q, 0, delta) {
			t.Fatalf("delta %d: source graph not confirmed", delta)
		}
	}
}

func TestDefaultFeaturesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dbc := randomDB(rng, 4)
	feats := DefaultFeatures(dbc, 32)
	if len(feats) == 0 {
		t.Fatal("no structural features")
	}
	if len(feats) > 32 {
		t.Fatalf("cap ignored: %d", len(feats))
	}
	seen := make(map[string]bool)
	for _, f := range feats {
		if f.NumEdges() < 1 || f.NumEdges() > 2 {
			t.Fatalf("unexpected feature size %d", f.NumEdges())
		}
		code := graph.CanonicalCode(f)
		if seen[code] {
			t.Fatal("duplicate structural feature")
		}
		seen[code] = true
	}
}

func TestBiggerDeltaNeverShrinksCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dbc := randomDB(rng, 8)
	ix := BuildIndex(dbc, DefaultFeatures(dbc, 64))
	q := extractSubquery(rng, dbc[1], 5)
	if q.NumEdges() < 3 {
		t.Skip("degenerate query")
	}
	prev := -1
	for delta := 0; delta <= 3; delta++ {
		n := len(candidates(ix, q, delta))
		if n < prev {
			t.Fatalf("candidates shrank from %d to %d as delta grew to %d", prev, n, delta)
		}
		prev = n
	}
}

// TestConfirmMatchesSimilar pins the seam the query plan relies on:
// confirming a candidate with one budgeted search (Confirm, and SCqCtx
// around it) equals the Definition 8 reference mcs.Similar, and equals
// Lemma 1's "some rq ∈ U embeds in gc" over U = relax.Relaxed(q, δ, 0) — the
// set pruning and verification go on to read — at every δ from 0 past
// |E(q)|. The queries are random graphs — usually not
// subgraphs of any database graph, often disconnected, sometimes with
// isolated vertices — so relaxations that fall apart, queries with a vertex
// no graph can host, and the δ ≥ |E(q)| level are all drawn.
func TestConfirmMatchesSimilar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dbc := randomDB(rng, 5)
		ix := BuildIndex(dbc, DefaultFeatures(dbc, 64))
		b := graph.NewBuilder("q")
		nv := 3 + rng.Intn(4)
		for v := 0; v < nv; v++ {
			// "z" labels no database vertex: a query vertex carrying it
			// matters only while it has an edge.
			b.AddVertex(graph.Label([]string{"a", "b", "c", "z"}[rng.Intn(4)]))
		}
		ne := 1 + rng.Intn(4)
		for tries, added := 0, 0; added < ne && tries < 40; tries++ {
			u, v := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
			if u == v {
				continue
			}
			if _, err := b.AddEdge(u, v, ""); err == nil {
				added++
			}
		}
		q := b.Build()
		for delta := 0; delta <= q.NumEdges()+1; delta++ {
			u := relax.Relaxed(q, delta, 0)
			confirmed, _, err := ix.SCqCtx(context.Background(), q, delta, 1)
			if err != nil {
				t.Log(err)
				return false
			}
			inSCq := make(map[int]bool)
			for _, gi := range confirmed {
				inSCq[gi] = true
			}
			for gi, g := range dbc {
				want := mcs.Similar(q, g, nil, delta)
				viaU := slices.ContainsFunc(u, func(rq *graph.Graph) bool { return iso.Exists(rq, g, nil) })
				if viaU != want || ix.Confirm(q, gi, delta) != want || inSCq[gi] != want {
					t.Logf("seed %d δ=%d graph %d: via U %v, Confirm %v, SCqCtx %v, mcs.Similar %v (q = %v)",
						seed, delta, gi, viaU, ix.Confirm(q, gi, delta), inSCq[gi], want, q)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
