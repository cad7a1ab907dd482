package verify

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// randomModel builds a small correlated PGraph and engine.
func randomModel(t testing.TB, rng *rand.Rand, nv, ne int) (*prob.PGraph, *prob.Engine) {
	b := graph.NewBuilder("m")
	for i := 0; i < nv; i++ {
		b.AddVertex("a")
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
	var jpts []prob.JPT
	e := 0
	for e < g.NumEdges() {
		k := 1 + rng.Intn(2)
		if e+k > g.NumEdges() {
			k = g.NumEdges() - e
		}
		edges := make([]graph.EdgeID, 0, k)
		for i := 0; i < k; i++ {
			edges = append(edges, graph.EdgeID(e+i))
		}
		tab := make([]float64, 1<<k)
		for i := range tab {
			tab[i] = 0.1 + rng.Float64()
		}
		jpts = append(jpts, prob.JPT{Edges: edges, P: tab})
		e += k
	}
	pg := prob.MustNew(g, jpts)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	return pg, eng
}

func randomClauses(rng *rand.Rand, numEdges, n int) []graph.EdgeSet {
	out := make([]graph.EdgeSet, n)
	for i := range out {
		out[i] = graph.NewEdgeSet(numEdges)
		k := 1 + rng.Intn(3)
		for j := 0; j < k; j++ {
			out[i].Add(graph.EdgeID(rng.Intn(numEdges)))
		}
	}
	return out
}

// enumerationDNF computes Pr(∨ clauses) by world enumeration.
func enumerationDNF(t testing.TB, eng *prob.Engine, clauses []graph.EdgeSet) float64 {
	total := 0.0
	if err := prob.EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
		for _, c := range clauses {
			if w.ContainsAll(c) {
				total += p
				break
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return total
}

func TestExactMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg, eng := randomModel(t, rng, 5, 6)
		clauses := randomClauses(rng, pg.G.NumEdges(), 1+rng.Intn(4))
		got, err := Exact(eng, clauses, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := enumerationDNF(t, eng, clauses)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSMPConvergesToExact(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg, eng := randomModel(t, rng, 6, 7)
		clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), 3))
		want := enumerationDNF(t, eng, clauses)
		got, err := SMP(eng, clauses, Options{N: 30000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.03 {
			t.Fatalf("seed %d: SMP %v vs exact %v", seed, got, want)
		}
	}
}

func TestSMPEmptyAndEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pg, eng := randomModel(t, rng, 4, 3)
	// No clauses.
	p, err := SMP(eng, nil, Options{N: 100})
	if err != nil || p != 0 {
		t.Fatalf("empty clause set: p=%v err=%v", p, err)
	}
	// A clause over certain edges (none here — all edges are covered by
	// JPTs, so use an empty clause instead): an empty edge set is trivially
	// satisfied, so Pr = 1.
	empty := graph.NewEdgeSet(pg.G.NumEdges())
	p, err = SMP(eng, []graph.EdgeSet{empty}, Options{N: 100})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("empty clause (always true) should give 1, got %v", p)
	}
}

func TestSMPCertainClause(t *testing.T) {
	// Graph with one certain edge: clause over it has probability 1.
	b := graph.NewBuilder("c")
	u := b.AddVertex("a")
	v := b.AddVertex("a")
	w := b.AddVertex("a")
	b.MustAddEdge(u, v, "") // edge 0: certain
	b.MustAddEdge(v, w, "") // edge 1: uncertain
	g := b.Build()
	pg := prob.MustNew(g, []prob.JPT{prob.NewIndependentJPT(1, 0.5)})
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	c := graph.NewEdgeSet(2)
	c.Add(0)
	p, err := SMP(eng, []graph.EdgeSet{c}, Options{N: 50})
	if err != nil {
		t.Fatal(err)
	}
	if p != 1 {
		t.Fatalf("certain clause should short-circuit to 1, got %v", p)
	}
}

func TestDedupClausesAbsorption(t *testing.T) {
	mk := func(ids ...graph.EdgeID) graph.EdgeSet {
		s := graph.NewEdgeSet(8)
		for _, id := range ids {
			s.Add(id)
		}
		return s
	}
	in := []graph.EdgeSet{mk(0, 1), mk(0, 1, 2), mk(0, 1), mk(3)}
	out := DedupClauses(in)
	// {0,1,2} is absorbed by {0,1}; duplicates collapse.
	if len(out) != 2 {
		t.Fatalf("got %d clauses, want 2: %v", len(out), out)
	}
	keys := map[string]bool{mk(0, 1).Key(): false, mk(3).Key(): false}
	for _, c := range out {
		if _, ok := keys[c.Key()]; !ok {
			t.Fatalf("unexpected clause %v", c.Slice())
		}
		keys[c.Key()] = true
	}
	for k, seen := range keys {
		if !seen {
			t.Fatalf("missing clause %q", k)
		}
	}
}

func TestDedupPreservesUnionSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pg, eng := randomModel(t, rng, 5, 5)
		clauses := randomClauses(rng, pg.G.NumEdges(), 4)
		before := enumerationDNF(t, eng, clauses)
		after := enumerationDNF(t, eng, DedupClauses(clauses))
		return math.Abs(before-after) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactRejectsTooManyClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pg, eng := randomModel(t, rng, 6, 6)
	clauses := make([]graph.EdgeSet, 25)
	for i := range clauses {
		clauses[i] = graph.NewEdgeSet(pg.G.NumEdges())
		clauses[i].Add(graph.EdgeID(i % pg.G.NumEdges()))
		clauses[i].Add(graph.EdgeID((i + 1 + i/6) % pg.G.NumEdges()))
	}
	clauses = append(clauses, randomClauses(rng, pg.G.NumEdges(), 10)...)
	unique := DedupClauses(clauses)
	if len(unique) <= 20 {
		t.Skip("not enough distinct clauses to trigger the cap")
	}
	if _, err := Exact(eng, unique, 20); err == nil {
		t.Fatal("expected clause-cap error")
	}
}

// TestTopClauses: Prepare keeps clauses in canonical order — descending
// Pr(Bfi), ties by ascending edge list — with literal lists and
// probabilities in step, sums V in that order, and truncates to its prefix.
func TestTopClauses(t *testing.T) {
	b := graph.NewBuilder("top")
	for i := 0; i < 7; i++ {
		b.AddVertex("a")
	}
	for i := 0; i < 6; i++ {
		b.MustAddEdge(graph.VertexID(i), graph.VertexID(i+1), "")
	}
	marginals := []float64{0.1, 0.9, 0.5, 0.7, 0.5, 0.25}
	var jpts []prob.JPT
	for e, p := range marginals {
		jpts = append(jpts, prob.NewIndependentJPT(graph.EdgeID(e), p))
	}
	eng, err := prob.NewEngine(prob.MustNew(b.Build(), jpts))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ids ...graph.EdgeID) graph.EdgeSet {
		s := graph.NewEdgeSet(6)
		for _, id := range ids {
			s.Add(id)
		}
		return s
	}
	// Pr: 0.1, 0.9, 0.5, 0.7, 0.5, 0.5·0.5 = 0.25 beside edge 5's 0.25.
	clauses := []graph.EdgeSet{mk(0), mk(1), mk(4), mk(3), mk(2), mk(2, 4), mk(5)}
	for _, tc := range []struct {
		max   int
		edges [][]graph.EdgeID
	}{
		{0, [][]graph.EdgeID{{1}, {3}, {2}, {4}, {2, 4}, {5}, {0}}},
		{3, [][]graph.EdgeID{{1}, {3}, {2}}},
		{6, [][]graph.EdgeID{{1}, {3}, {2}, {4}, {2, 4}, {5}}},
	} {
		d, err := Prepare(eng, clauses, Options{MaxClauses: tc.max})
		if err != nil {
			t.Fatal(err)
		}
		if d.Clauses() != len(tc.edges) {
			t.Fatalf("MaxClauses %d: kept %d clauses, want %d", tc.max, d.Clauses(), len(tc.edges))
		}
		v := 0.0
		for k, want := range tc.edges {
			c := d.clauses[k]
			if got := c.set.Slice(); !slices.Equal(got, want) || len(c.lits) != len(want) || c.lits[0].Edge != want[0] {
				t.Fatalf("MaxClauses %d: clause %d is %v with literals %v, want %v", tc.max, k, got, c.lits, want)
			}
			if p, _ := eng.ProbLits(c.lits); c.p != p {
				t.Fatalf("MaxClauses %d: clause %d has probability %v, its literals %v", tc.max, k, c.p, p)
			}
			v += c.p
		}
		if d.v != v {
			t.Fatalf("MaxClauses %d: V = %v, the sum in canonical order %v", tc.max, d.v, v)
		}
	}
}

func TestLowerBoundSearch(t *testing.T) {
	cum := []float64{0.1, 0.4, 0.9, 1.0}
	cases := map[float64]int{0.05: 0, 0.1: 0, 0.2: 1, 0.4: 1, 0.95: 3, 1.0: 3}
	for x, want := range cases {
		if got := lowerBound(cum, x); got != want {
			t.Fatalf("lowerBound(%v) = %d, want %d", x, got, want)
		}
	}
}

// TestSMPTruncationKeepsClausesAligned: past MaxClauses, SMP must sample
// exactly as it would on the kept clauses alone — probabilities, literal
// lists and edge sets staying in step.
func TestSMPTruncationKeepsClausesAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pg, eng := randomModel(t, rng, 6, 8)
	clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), 24))
	if len(clauses) < 4 {
		t.Fatalf("fixture has only %d distinct clauses", len(clauses))
	}
	lits := make([][]prob.Literal, len(clauses))
	probs := make([]float64, len(clauses))
	for i, c := range clauses {
		lits[i] = prob.AllPresent(c)
		probs[i], _ = eng.ProbLits(lits[i])
	}
	order := make([]int, len(clauses))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(probs[b], probs[a]) })
	kept := []graph.EdgeSet{clauses[order[0]], clauses[order[1]], clauses[order[2]]}
	got, err := SMP(eng, clauses, Options{N: 500, Seed: 4, MaxClauses: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := SMP(eng, kept, Options{N: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("truncated SMP %v, SMP over the kept clauses %v", got, want)
	}
}

// TestSMPCalibration holds the sampler to the paper's Monte-Carlo guarantee
// (arXiv:1205.6692 §5): with the default ξ = .05, τ = .1 → N = 1476, the
// estimate is within τ·Exact of Exact with probability ≥ 1−ξ. Over 240
// seeded (graph, DNF ≤ 12 clauses) trials the number of misses is at most
// Binomial(240, ξ): mean 12, σ = √(240·.05·.95) ≈ 3.4; the test allows
// mean + 3σ = 22. Any change to the sampler or the engine's sampling tables
// must keep this green.
func TestSMPCalibration(t *testing.T) {
	const trials, allowed = 240, 22
	misses, worst := 0, 0.0
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		pg, eng := randomModel(t, rng, 6+rng.Intn(4), 7+rng.Intn(6))
		clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), 2+rng.Intn(11)))
		exact, err := Exact(eng, clauses, 0)
		if err != nil {
			t.Fatal(err)
		}
		est, err := SMP(eng, clauses, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(est-exact) / exact
		worst = math.Max(worst, rel)
		if rel > 0.1 {
			misses++
		}
	}
	t.Logf("%d of %d trials outside τ·Exact; worst relative error %.4f", misses, trials, worst)
	if misses > allowed {
		t.Fatalf("%d of %d trials miss |SMP − Exact| ≤ τ·Exact, more than ξ·trials + 3σ = %d", misses, trials, allowed)
	}
}
