package feature

import (
	"math/rand"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
)

func smallDB(rng *rand.Rand, n int) []*graph.Graph {
	var dbc []*graph.Graph
	for i := 0; i < n; i++ {
		b := graph.NewBuilder("g")
		nv := 5 + rng.Intn(4)
		for v := 0; v < nv; v++ {
			b.AddVertex(graph.Label([]string{"a", "b", "c"}[rng.Intn(3)]))
		}
		for tries, added := 0, 0; added < nv+2 && tries < 60; tries++ {
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

func TestMineSupportIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dbc := smallDB(rng, 12)
	feats := Mine(dbc, Options{Beta: 0.2, Alpha: 0.05, Gamma: 0.05, MaxL: 4})
	if len(feats) == 0 {
		t.Fatal("no features mined")
	}
	for fi, f := range feats {
		if len(f.Support) == 0 {
			t.Fatalf("feature %d has empty support", fi)
		}
		for _, gi := range f.Support {
			if !iso.Exists(f.G, dbc[gi], nil) {
				t.Fatalf("feature %d claims support in graph %d but does not embed", fi, gi)
			}
		}
		// Support must be complete: any graph containing f is listed.
		inSupport := make(map[int]bool)
		for _, gi := range f.Support {
			inSupport[gi] = true
		}
		for gi := range dbc {
			if iso.Exists(f.G, dbc[gi], nil) && !inSupport[gi] {
				t.Fatalf("feature %d misses supporting graph %d", fi, gi)
			}
		}
	}
}

func TestMineRespectsBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dbc := smallDB(rng, 10)
	feats := Mine(dbc, Options{Beta: 0.5, Alpha: 0.01, Gamma: 0.01, MaxL: 3})
	for _, f := range feats {
		// frq uses the α-qualified subset of Support, which is ≤ |Support|;
		// Support itself must meet the floor too.
		if len(f.Support) < 5 {
			t.Fatalf("feature with support %d violates β=0.5 over 10 graphs", len(f.Support))
		}
	}
}

func TestMineRespectsMaxL(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dbc := smallDB(rng, 8)
	for _, maxL := range []int{2, 3, 4} {
		for _, f := range Mine(dbc, Options{Beta: 0.1, Alpha: 0.01, Gamma: 0.01, MaxL: maxL}) {
			if f.G.NumVertices() > maxL {
				t.Fatalf("feature with %d vertices violates maxL=%d", f.G.NumVertices(), maxL)
			}
		}
	}
}

func TestMineDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dbc := smallDB(rng, 8)
	feats := Mine(dbc, Options{Beta: 0.1, Alpha: 0.01, Gamma: 0.01, MaxL: 4})
	seen := make(map[string]bool)
	for _, f := range feats {
		code := graph.CanonicalCode(f.G)
		if seen[code] {
			t.Fatalf("duplicate feature code %q", code)
		}
		seen[code] = true
	}
}

func TestMineMaxFeaturesCap(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dbc := smallDB(rng, 10)
	feats := Mine(dbc, Options{Beta: 0.1, Alpha: 0.01, Gamma: 0.01, MaxL: 5, MaxFeatures: 3})
	if len(feats) > 3 {
		t.Fatalf("MaxFeatures ignored: %d features", len(feats))
	}
}

func TestMineEmptyDB(t *testing.T) {
	if feats := Mine(nil, Options{}); feats != nil {
		t.Fatal("empty database must yield no features")
	}
}

func TestMineGrowsBeyondSingleEdges(t *testing.T) {
	// A database of identical triangles must produce a 3-vertex feature.
	var dbc []*graph.Graph
	for i := 0; i < 6; i++ {
		b := graph.NewBuilder("tri")
		v0 := b.AddVertex("a")
		v1 := b.AddVertex("b")
		v2 := b.AddVertex("c")
		b.MustAddEdge(v0, v1, "")
		b.MustAddEdge(v1, v2, "")
		b.MustAddEdge(v0, v2, "")
		dbc = append(dbc, b.Build())
	}
	feats := Mine(dbc, Options{Beta: 0.9, Alpha: 0.5, Gamma: -1, MaxL: 3})
	maxEdges := 0
	for _, f := range feats {
		if f.G.NumEdges() > maxEdges {
			maxEdges = f.G.NumEdges()
		}
	}
	if maxEdges < 2 {
		t.Fatalf("mining never grew beyond single edges (max %d edges)", maxEdges)
	}
}

func TestGammaPrunesRedundantFeatures(t *testing.T) {
	// Five graphs all contain the edges a-b and b-c, but only three contain
	// the connected path a-b-c (in the other two the edges are disjoint).
	// The path's support (3) is 60% of its parents' intersection (5), so it
	// is kept at γ ≤ 0.4 and pruned at stricter γ.
	mkPath := func() *graph.Graph {
		b := graph.NewBuilder("path")
		va := b.AddVertex("a")
		vb := b.AddVertex("b")
		vc := b.AddVertex("c")
		b.MustAddEdge(va, vb, "")
		b.MustAddEdge(vb, vc, "")
		return b.Build()
	}
	mkSplit := func() *graph.Graph {
		b := graph.NewBuilder("split")
		va := b.AddVertex("a")
		vb1 := b.AddVertex("b")
		vb2 := b.AddVertex("b")
		vc := b.AddVertex("c")
		b.MustAddEdge(va, vb1, "")
		b.MustAddEdge(vb2, vc, "")
		return b.Build()
	}
	dbc := []*graph.Graph{mkPath(), mkPath(), mkPath(), mkSplit(), mkSplit()}
	hasPath := func(feats []*Feature) bool {
		for _, f := range feats {
			if f.G.NumEdges() == 2 {
				return true
			}
		}
		return false
	}
	loose := Mine(dbc, Options{Beta: 0.2, Alpha: 0.1, Gamma: 0.3, MaxL: 3})
	strict := Mine(dbc, Options{Beta: 0.2, Alpha: 0.1, Gamma: 0.5, MaxL: 3})
	if !hasPath(loose) {
		t.Fatal("γ=0.3 should keep the 2-edge path (support shrinks by 40%)")
	}
	if hasPath(strict) {
		t.Fatal("γ=0.5 should prune the 2-edge path (support shrinks only 40%)")
	}
}
