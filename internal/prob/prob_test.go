package prob

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
)

// chain returns a labeled path graph with n vertices.
func chain(n int) *graph.Graph {
	b := graph.NewBuilder("chain")
	prev := b.AddVertex("a")
	for i := 1; i < n; i++ {
		next := b.AddVertex("a")
		b.MustAddEdge(prev, next, "")
		prev = next
	}
	return b.Build()
}

// randomPGraph builds a random correlated model: a random graph whose edges
// are grouped into JPTs of size 1–3; with probability 1/3 adjacent groups
// share one edge (exercising the normalizing MRF path).
func randomPGraph(rng *rand.Rand, nv, ne int) *PGraph {
	b := graph.NewBuilder("rpg")
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
	g := b.Build()
	var jpts []JPT
	e := 0
	for e < g.NumEdges() {
		k := 1 + rng.Intn(3)
		if e+k > g.NumEdges() {
			k = g.NumEdges() - e
		}
		edges := make([]graph.EdgeID, 0, k+1)
		for i := 0; i < k; i++ {
			edges = append(edges, graph.EdgeID(e+i))
		}
		// Occasionally overlap with the previous group's last edge.
		if e > 0 && rng.Intn(3) == 0 {
			edges = append(edges, graph.EdgeID(e-1))
		}
		tab := make([]float64, 1<<len(edges))
		for i := range tab {
			tab[i] = 0.05 + rng.Float64()
		}
		jpts = append(jpts, JPT{Edges: edges, P: tab})
		e += k
	}
	return MustNew(g, jpts)
}

func TestJPTValidate(t *testing.T) {
	cases := []struct {
		name string
		jpt  JPT
		ok   bool
	}{
		{"good", JPT{Edges: []graph.EdgeID{0}, P: []float64{0.4, 0.6}}, true},
		{"empty", JPT{}, false},
		{"wrong-len", JPT{Edges: []graph.EdgeID{0}, P: []float64{1}}, false},
		{"neg", JPT{Edges: []graph.EdgeID{0}, P: []float64{-0.1, 1.1}}, false},
		{"nan", JPT{Edges: []graph.EdgeID{0}, P: []float64{math.NaN(), 1}}, false},
		{"dup-edge", JPT{Edges: []graph.EdgeID{0, 0}, P: []float64{1, 1, 1, 1}}, false},
		{"out-of-range", JPT{Edges: []graph.EdgeID{9}, P: []float64{0.5, 0.5}}, false},
		{"zero-weight", JPT{Edges: []graph.EdgeID{0}, P: []float64{0, 0}}, false},
	}
	for _, c := range cases {
		err := c.jpt.Validate(3)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestJPTNormalize(t *testing.T) {
	j := JPT{Edges: []graph.EdgeID{0}, P: []float64{2, 6}}
	j.Normalize()
	if math.Abs(j.P[0]-0.25) > 1e-12 || math.Abs(j.P[1]-0.75) > 1e-12 {
		t.Fatalf("normalize gave %v", j.P)
	}
}

// paper001 builds the paper's Figure 1 graph 001: a triangle with the full
// 8-row JPT over its three neighbor edges.
func paper001(t *testing.T) (*PGraph, *Engine) {
	t.Helper()
	b := graph.NewBuilder("001")
	va := b.AddVertex("a")
	vb := b.AddVertex("b")
	vd := b.AddVertex("d")
	e1 := b.MustAddEdge(va, vb, "")
	e2 := b.MustAddEdge(vb, vd, "")
	e3 := b.MustAddEdge(va, vd, "")
	g := b.Build()
	// JPT rows from the paper (bit order: e1=bit0, e2=bit1, e3=bit2):
	// Pr(1,1,1)=0.2 Pr(1,1,0)=0.2 Pr(1,0,1)=0.1 Pr(1,0,0)=0.1
	// Pr(0,1,1)=0.1 Pr(0,1,0)=0.1 Pr(0,0,1)=0.1 Pr(0,0,0)=0.1
	tab := make([]float64, 8)
	set := func(v1, v2, v3 int, p float64) {
		tab[v1|v2<<1|v3<<2] = p
	}
	set(1, 1, 1, 0.2)
	set(1, 1, 0, 0.2)
	set(1, 0, 1, 0.1)
	set(1, 0, 0, 0.1)
	set(0, 1, 1, 0.1)
	set(0, 1, 0, 0.1)
	set(0, 0, 1, 0.1)
	set(0, 0, 0, 0.1)
	pg := MustNew(g, []JPT{{Edges: []graph.EdgeID{e1, e2, e3}, P: tab}})
	eng, err := NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	return pg, eng
}

func TestPaper001Exact(t *testing.T) {
	pg, eng := paper001(t)
	if math.Abs(eng.Z()-1) > 1e-12 {
		t.Fatalf("Z = %v, want 1 (normalized table)", eng.Z())
	}
	// Pr(e1=1) = 0.2+0.2+0.1+0.1 = 0.6
	p, err := eng.MarginalPresent(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.6) > 1e-12 {
		t.Fatalf("Pr(e1) = %v, want 0.6", p)
	}
	// Pr(e1=1, e2=1, e3=1) = 0.2 (the full triangle world).
	p, err = eng.ProbLits([]graph.EdgeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.2) > 1e-12 {
		t.Fatalf("Pr(all) = %v, want 0.2", p)
	}
	// Pr(all absent) = 0.1: the world of no uncertain edge.
	if p = eng.WorldProb(pg.NewWorld()); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("Pr(none) = %v, want 0.1", p)
	}
}

func TestCertainEdgesAlwaysPresent(t *testing.T) {
	g := chain(4) // 3 edges; only edge 1 uncertain
	pg := MustNew(g, []JPT{NewIndependentJPT(1, 0.5)})
	eng, err := NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ed := range []graph.EdgeID{0, 2} {
		p, err := eng.MarginalPresent(ed)
		if err != nil {
			t.Fatal(err)
		}
		if p != 1 {
			t.Fatalf("certain edge %d marginal = %v, want 1", ed, p)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		w := eng.SampleWorld(rng)
		if !w.Contains(0) || !w.Contains(2) {
			t.Fatal("sampled world missing certain edge")
		}
	}
}

// enumProb computes Pr(every edge present) by brute-force world enumeration.
func enumProb(t *testing.T, eng *Engine, edges []graph.EdgeID) float64 {
	t.Helper()
	total := 0.0
	err := EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
		for _, ed := range edges {
			if !w.Contains(ed) {
				return true
			}
		}
		total += p
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestEngineAgainstEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg := randomPGraph(rng, 4+rng.Intn(3), 3+rng.Intn(4))
		eng, err := NewEngine(pg)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		// World probabilities must sum to 1.
		sum := 0.0
		if err := EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
			sum += p
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// Random edge subsets match enumeration.
		for trial := 0; trial < 4; trial++ {
			var edges []graph.EdgeID
			for e := 0; e < pg.G.NumEdges(); e++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, graph.EdgeID(e))
				}
			}
			want := enumProb(t, eng, edges)
			got, err := eng.ProbLits(edges)
			if err != nil {
				t.Fatalf("ProbLits: %v", err)
			}
			if math.Abs(got-want) > 1e-9 {
				t.Logf("seed %d edges %v: got %v want %v", seed, edges, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplingMatchesMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pg := randomPGraph(rng, 6, 6)
	eng, err := NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	const N = 40000
	counts := make([]int, pg.G.NumEdges())
	world := pg.NewWorld()
	scratch := make([]bool, pg.NumUncertain())
	for i := 0; i < N; i++ {
		eng.SampleWorldInto(rng, world, scratch)
		for e := 0; e < pg.G.NumEdges(); e++ {
			if world.Contains(graph.EdgeID(e)) {
				counts[e]++
			}
		}
	}
	for e := 0; e < pg.G.NumEdges(); e++ {
		want, err := eng.MarginalPresent(graph.EdgeID(e))
		if err != nil {
			t.Fatal(err)
		}
		got := float64(counts[e]) / N
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("edge %d: sampled %v, exact %v", e, got, want)
		}
	}
}

func TestConditionedSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pg := randomPGraph(rng, 6, 6)
	eng, err := NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	target := pg.UncertainEdges()[0]
	cond, err := eng.NewConditioned([]graph.EdgeID{target})
	if err != nil {
		t.Fatal(err)
	}
	// Evidence mass should match the unconditioned marginal.
	want, err := eng.MarginalPresent(target)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond.ProbEvidence()-want) > 1e-9 {
		t.Fatalf("evidence mass %v, marginal %v", cond.ProbEvidence(), want)
	}
	// Every sampled world satisfies the evidence; other-edge frequencies
	// match exact conditionals.
	other := pg.UncertainEdges()[len(pg.UncertainEdges())-1]
	if other == target && pg.NumUncertain() > 1 {
		other = pg.UncertainEdges()[1]
	}
	const N = 30000
	hits := 0
	for i := 0; i < N; i++ {
		w := cond.SampleWorld(rng)
		if !w.Contains(target) {
			t.Fatal("conditioned sample violates evidence")
		}
		if w.Contains(other) {
			hits++
		}
	}
	wantCond, err := cond.MarginalPresent(other)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(hits) / N
	if math.Abs(got-wantCond) > 0.02 {
		t.Fatalf("conditional marginal: sampled %v, exact %v", got, wantCond)
	}
}

func TestProbDNFExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg := randomPGraph(rng, 5, 5)
		eng, err := NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		ne := pg.G.NumEdges()
		nClauses := 1 + rng.Intn(3)
		clauses := make([]graph.EdgeSet, nClauses)
		for i := range clauses {
			clauses[i] = graph.NewEdgeSet(ne)
			for e := 0; e < ne; e++ {
				if rng.Intn(3) == 0 {
					clauses[i].Add(graph.EdgeID(e))
				}
			}
			if clauses[i].Count() == 0 {
				clauses[i].Add(graph.EdgeID(rng.Intn(ne)))
			}
		}
		got, err := ProbDNFExact(eng, clauses, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: a world satisfies the DNF if it contains some clause.
		want := 0.0
		if err := EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
			for _, c := range clauses {
				if w.ContainsAll(c) {
					want += p
					break
				}
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIsNeighborEdgeSet(t *testing.T) {
	b := graph.NewBuilder("x")
	v0 := b.AddVertex("a")
	v1 := b.AddVertex("a")
	v2 := b.AddVertex("a")
	v3 := b.AddVertex("a")
	e01 := b.MustAddEdge(v0, v1, "")
	e02 := b.MustAddEdge(v0, v2, "")
	e03 := b.MustAddEdge(v0, v3, "")
	e12 := b.MustAddEdge(v1, v2, "")
	e23 := b.MustAddEdge(v2, v3, "")
	g := b.Build()
	cases := []struct {
		edges []graph.EdgeID
		want  bool
	}{
		{[]graph.EdgeID{e01}, true},            // single edge
		{[]graph.EdgeID{e01, e02, e03}, true},  // star at v0
		{[]graph.EdgeID{e01, e02, e12}, true},  // triangle v0,v1,v2
		{[]graph.EdgeID{e01, e23}, false},      // disjoint pair
		{[]graph.EdgeID{}, false},              // empty
		{[]graph.EdgeID{e01, e12, e23}, false}, // path, no common vertex
	}
	for i, c := range cases {
		if got := IsNeighborEdgeSet(g, c.edges); got != c.want {
			t.Errorf("case %d: got %v want %v", i, got, c.want)
		}
	}
}

func TestNewIndependent(t *testing.T) {
	g := chain(4)
	pg, err := NewIndependent(g, map[graph.EdgeID]float64{0: 0.3, 1: 0.7, 2: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	for e, want := range map[graph.EdgeID]float64{0: 0.3, 1: 0.7, 2: 0.5} {
		got, err := eng.MarginalPresent(e)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("edge %d marginal %v want %v", e, got, want)
		}
	}
	// Joint = product under independence.
	got, err := eng.ProbLits([]graph.EdgeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.21) > 1e-12 {
		t.Fatalf("joint %v want 0.21", got)
	}
	if _, err := NewIndependent(g, map[graph.EdgeID]float64{0: 1.5}); err == nil {
		t.Fatal("expected out-of-range probability error")
	}
}

func TestSharedEdgeJPTsNormalize(t *testing.T) {
	// Two tables both covering edge 1 (paper Figure 1 structure): the raw
	// product is unnormalized; the engine must still produce a proper
	// distribution.
	g := chain(4) // edges 0,1,2
	j1 := JPT{Edges: []graph.EdgeID{0, 1}, P: []float64{0.1, 0.2, 0.3, 0.4}}
	j2 := JPT{Edges: []graph.EdgeID{1, 2}, P: []float64{0.25, 0.25, 0.25, 0.25}}
	pg := MustNew(g, []JPT{j1, j2})
	eng, err := NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	if err := EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
		sum += p
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("world probabilities sum to %v, want 1", sum)
	}
}
