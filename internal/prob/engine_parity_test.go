package prob_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
	"probgraph/internal/verify"
)

// The compiled Engine against the reference engine it replaced
// (engine_ref_test.go): not "close", the same float64 bits, the same sampled
// worlds and the same rng state afterwards, because every answer the system
// gives — and every bitwise-parity test above this package — rests on it.

// parityPGraph draws a model built to break an engine rather than to
// resemble data: JPTs that overlap earlier scopes, list their edges in any
// order and carry zero entries, beside edges left certain. One in twenty-five
// has no JPT at all.
func parityPGraph(rng *rand.Rand) *prob.PGraph {
	nv, ne := 4+rng.Intn(6), 3+rng.Intn(12)
	b := graph.NewBuilder("parity")
	for i := 0; i < nv; i++ {
		b.AddVertex("a")
	}
	for tries, added := 0, 0; added < ne && tries < 30*ne; tries++ {
		u, v := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
		if _, err := b.AddEdge(u, v, ""); err == nil {
			added++
		}
	}
	g := b.Build()
	var jpts []prob.JPT
	if rng.Intn(25) == 0 {
		return prob.MustNew(g, nil)
	}
	for e := 0; e < g.NumEdges(); {
		if rng.Intn(6) == 0 {
			e++ // left certain, unless a later table reaches back for it
			continue
		}
		k := min(1+rng.Intn(3), g.NumEdges()-e)
		in := map[graph.EdgeID]bool{}
		var edges []graph.EdgeID
		for i := 0; i < k; i++ {
			edges = append(edges, graph.EdgeID(e+i))
			in[graph.EdgeID(e+i)] = true
		}
		for extra := rng.Intn(3); extra > 0 && e > 0; extra-- {
			if old := graph.EdgeID(rng.Intn(e)); !in[old] {
				edges = append(edges, old)
				in[old] = true
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		tab := make([]float64, 1<<len(edges))
		for i := range tab {
			if rng.Intn(4) != 0 {
				tab[i] = 0.05 + rng.Float64()
			}
		}
		tab[rng.Intn(len(tab))] += 0.5 // a table may not be all zero
		jpts = append(jpts, prob.JPT{Edges: edges, P: tab})
		e += k
	}
	return prob.MustNew(g, jpts)
}

// parityLits draws evidence over all edges — certain ones included, either
// polarity — and now and then asserts one edge both ways.
func parityLits(rng *rand.Rand, pg *prob.PGraph) []prob.Literal {
	var lits []prob.Literal
	for e := 0; e < pg.G.NumEdges(); e++ {
		if rng.Intn(3) == 0 {
			lits = append(lits, prob.Literal{Edge: graph.EdgeID(e), Present: rng.Intn(3) != 0})
		}
	}
	if len(lits) > 0 && rng.Intn(8) == 0 {
		l := lits[rng.Intn(len(lits))]
		lits = append(lits, prob.Literal{Edge: l.Edge, Present: !l.Present})
	}
	return lits
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// checkPair holds one engine to its reference: partition function, evidence
// mass, then worlds drawn through both sampling entry points from equal
// seeds, and what the rng yields next.
func checkPair(t *testing.T, tag string, ref *prob.RefEngine, eng *prob.Engine, seed int64) {
	t.Helper()
	if !sameBits(ref.Z(), eng.Z()) || !sameBits(ref.ProbEvidence(), eng.ProbEvidence()) {
		t.Fatalf("%s: Z %v/%v evidence %v/%v", tag, ref.Z(), eng.Z(), ref.ProbEvidence(), eng.ProbEvidence())
	}
	r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	w1, w2 := graph.NewEdgeSet(eng.NumEdges()), graph.NewEdgeSet(eng.NumEdges())
	scratch := make([]bool, eng.NumUncertain())
	for i := 0; i < 8; i++ {
		ref.SampleWorldInto(r1, w1, scratch)
		eng.SampleWorldInto(r2, w2, scratch)
		if w1.Key() != w2.Key() {
			t.Fatalf("%s: sample %d differs: %v vs %v", tag, i, w1.Slice(), w2.Slice())
		}
	}
	if a, b := ref.SampleWorld(r1), eng.SampleWorld(r2); a.Key() != b.Key() {
		t.Fatalf("%s: SampleWorld differs: %v vs %v", tag, a.Slice(), b.Slice())
	}
	if r1.Int63() != r2.Int63() {
		t.Fatalf("%s: rng state differs after sampling", tag)
	}
}

// checkProbLits compares one probability query, value bits and error.
func checkProbLits(t *testing.T, tag string, ref *prob.RefEngine, eng *prob.Engine, lits []prob.Literal) {
	t.Helper()
	p1, e1 := ref.ProbLits(lits)
	p2, e2 := eng.ProbLits(lits)
	if !sameErr(e1, e2) || !sameBits(p1, p2) {
		t.Fatalf("%s: ProbLits(%v) = %v, %v; reference %v, %v", tag, lits, p2, e2, p1, e1)
	}
}

func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg := parityPGraph(rng)
		ref, e1 := prob.NewRefEngine(pg)
		eng, e2 := prob.NewEngine(pg)
		if e1 != nil || e2 != nil {
			t.Fatalf("seed %d: engines: %v, %v", seed, e1, e2)
		}
		tag := fmt.Sprintf("seed %d", seed)
		checkPair(t, tag, ref, eng, seed)
		checkMarginals(t, tag, ref, eng)
		for trial := 0; trial < 4; trial++ {
			lits := parityLits(rng, pg)
			tag := fmt.Sprintf("seed %d trial %d", seed, trial)
			checkProbLits(t, tag, ref, eng, lits)
			rc, e1 := ref.NewConditioned(lits)
			c, e2 := eng.NewConditioned(lits)
			if !sameErr(e1, e2) {
				t.Fatalf("%s: NewConditioned(%v): %v; reference %v", tag, lits, e2, e1)
			}
			if e1 != nil {
				continue
			}
			checkPair(t, tag+" conditioned", rc, c, seed+int64(trial))
			// Nested: queries on top of the evidence — every marginal, new
			// literals, and new literals beside the evidence restated — and
			// an engine conditioned from the conditioned one, queried too.
			for ed := 0; ed < pg.G.NumEdges(); ed++ {
				checkProbLits(t, tag+" conditioned marginal", rc, c, []prob.Literal{{Edge: graph.EdgeID(ed), Present: true}})
			}
			more := parityLits(rng, pg)
			checkProbLits(t, tag+" nested", rc, c, more)
			checkProbLits(t, tag+" nested over evidence", rc, c, append(slices.Clip(more), lits...))
			rcc, e1 := rc.NewConditioned(more)
			cc, e2 := c.NewConditioned(more)
			if !sameErr(e1, e2) {
				t.Fatalf("%s: nested NewConditioned(%v): %v; reference %v", tag, more, e2, e1)
			}
			if e1 == nil {
				checkPair(t, tag+" re-conditioned", rcc, cc, seed)
				checkProbLits(t, tag+" re-conditioned", rcc, cc, lits)
			}
		}
	}
	// Corpus-sized schedules, which no parity model above reaches: the
	// ledger's corpus shape and graphs of 100–110 vertices, queried with
	// clauses of one to four literals as verification queries them.
	for _, o := range []dataset.PPIOptions{
		{NumGraphs: 120, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 1},
		{NumGraphs: 6, MinVertices: 100, MaxVertices: 110, Organisms: 6, Correlated: true, Seed: 3},
	} {
		db, err := dataset.GeneratePPI(o)
		if err != nil {
			t.Fatal(err)
		}
		for i, pg := range db.Graphs {
			seed, tag := int64(i), fmt.Sprintf("PPI %d-%d vertices, graph %d", o.MinVertices, o.MaxVertices, i)
			ref, e1 := prob.NewRefEngine(pg)
			eng, e2 := prob.NewEngine(pg)
			if e1 != nil || e2 != nil {
				t.Fatalf("%s: engines: %v, %v", tag, e1, e2)
			}
			checkPair(t, tag, ref, eng, seed)
			checkMarginals(t, tag, ref, eng)
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 3; trial++ {
				lits := clauseLits(rng, pg)
				tag := fmt.Sprintf("%s trial %d", tag, trial)
				checkProbLits(t, tag, ref, eng, lits)
				rc, e1 := ref.NewConditioned(lits)
				c, e2 := eng.NewConditioned(lits)
				if e1 != nil || e2 != nil {
					t.Fatalf("%s: NewConditioned(%v): %v; reference %v", tag, lits, e2, e1)
				}
				checkPair(t, tag+" conditioned", rc, c, seed+int64(trial))
				checkProbLits(t, tag+" nested", rc, c, clauseLits(rng, pg))
			}
		}
	}
}

// checkMarginals compares every edge's marginal, value bits and error.
func checkMarginals(t *testing.T, tag string, ref *prob.RefEngine, eng *prob.Engine) {
	t.Helper()
	for ed := 0; ed < eng.NumEdges(); ed++ {
		m1, e1 := ref.MarginalPresent(graph.EdgeID(ed))
		m2, e2 := eng.MarginalPresent(graph.EdgeID(ed))
		if !sameErr(e1, e2) || !sameBits(m1, m2) {
			t.Fatalf("%s: marginal of edge %d: %v, %v; reference %v, %v", tag, ed, m2, e2, m1, e1)
		}
	}
}

// clauseLits draws one to four distinct uncertain edges of pg, each asserted
// present or, one time in four, absent.
func clauseLits(rng *rand.Rand, pg *prob.PGraph) []prob.Literal {
	es := pg.UncertainEdges()
	var lits []prob.Literal
	for _, i := range rng.Perm(len(es))[:min(1+rng.Intn(4), len(es))] {
		lits = append(lits, prob.Literal{Edge: es[i], Present: rng.Intn(4) != 0})
	}
	return lits
}

// coupled returns a path of n edges whose edges are all pairwise coupled, so
// the first elimination already spans n variables.
func coupled(n int) *prob.PGraph {
	b := graph.NewBuilder("coupled")
	prev := b.AddVertex("a")
	for i := 0; i < n; i++ {
		next := b.AddVertex("a")
		b.MustAddEdge(prev, next, "")
		prev = next
	}
	var jpts []prob.JPT
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			jpts = append(jpts, prob.JPT{
				Edges: []graph.EdgeID{graph.EdgeID(j), graph.EdgeID(i)},
				P:     []float64{0.3, 0.2 + float64(i)/100, 0.1 + float64(j)/100, 0.4},
			})
		}
	}
	return prob.MustNew(b.Build(), jpts)
}

func TestEngineWidthMatchesReference(t *testing.T) {
	_, e1 := prob.NewRefEngine(coupled(prob.MaxFactorWidth + 2))
	_, e2 := prob.NewEngine(coupled(prob.MaxFactorWidth + 2))
	if e1 == nil || !sameErr(e1, e2) {
		t.Fatalf("width refusal: %v; reference %v", e2, e1)
	}
	// A wide model below the limit: 2^9-entry tables.
	pg := coupled(10)
	ref, e1 := prob.NewRefEngine(pg)
	eng, e2 := prob.NewEngine(pg)
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	checkPair(t, "coupled(10)", ref, eng, 3)
	lits := []prob.Literal{{Edge: 2, Present: true}, {Edge: 7, Present: false}}
	checkProbLits(t, "coupled(10)", ref, eng, lits)
	rc, e1 := ref.NewConditioned(lits)
	c, e2 := eng.NewConditioned(lits)
	if e1 != nil || e2 != nil {
		t.Fatal(e1, e2)
	}
	checkPair(t, "coupled(10) conditioned", rc, c, 4)
}

// refSMP is verify.SMP written over the reference engine, minus the
// MaxClauses truncation the instances below never reach: clauses in
// canonical order (descending probability, ties by ascending edge list), a
// SplitMix64 stream, and a pick of clause i > 0 testing clauses 0..i−1 in a
// lazily drawn world conditioned on clause i — each failing on an edge
// already known absent, else reading its edges in ascending order.
func refSMP(eng *prob.RefEngine, clauses []graph.EdgeSet, n int, seed int64) (float64, error) {
	if len(clauses) == 0 {
		return 0, nil
	}
	type clause struct {
		edges []graph.EdgeID
		p     float64
	}
	cs := make([]clause, len(clauses))
	for i, c := range clauses {
		p, err := eng.ProbLits(prob.AllPresent(c))
		if err != nil {
			return 0, err
		}
		if p >= 1 {
			return 1, nil
		}
		cs[i] = clause{c.Slice(), p}
	}
	sort.SliceStable(cs, func(a, b int) bool {
		if cs[a].p != cs[b].p {
			return cs[a].p > cs[b].p
		}
		return slices.Compare(cs[a].edges, cs[b].edges) < 0
	})
	if cs[0].p <= 0 {
		return 0, nil
	}
	v := 0.0
	cum := make([]float64, len(cs))
	for i, c := range cs {
		v += c.p
		cum[i] = v
	}
	cond := make([]*prob.RefEngine, len(cs))
	rng := prob.NewSplitMix(seed)
	world := eng.NewLazyWorld()
	cnt := 0
	for s := 0; s < n; s++ {
		x := rng.Float64() * v
		i := 0
		for i < len(cum)-1 && cum[i] < x {
			i++
		}
		first := true
		if i > 0 {
			if cond[i] == nil {
				var lits []prob.Literal
				for _, ed := range cs[i].edges {
					lits = append(lits, prob.Literal{Edge: ed, Present: true})
				}
				ce, err := eng.NewConditioned(lits)
				if err != nil {
					return 0, err
				}
				cond[i] = ce
			}
			world.Reset(cond[i])
			for _, c := range cs[:i] {
				holds := !slices.ContainsFunc(c.edges, world.KnownAbsent)
				for _, ed := range c.edges {
					if !holds {
						break
					}
					holds = world.Present(&rng, ed)
				}
				if holds {
					first = false
					break
				}
			}
		}
		if first {
			cnt++
		}
	}
	return min(v*float64(cnt)/float64(n), 1), nil
}

func TestSMPMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg := parityPGraph(rng)
		ref, e1 := prob.NewRefEngine(pg)
		eng, e2 := prob.NewEngine(pg)
		if e1 != nil || e2 != nil {
			t.Fatal(e1, e2)
		}
		clauses := make([]graph.EdgeSet, rng.Intn(7))
		for i := range clauses {
			clauses[i] = graph.NewEdgeSet(pg.G.NumEdges())
			for e := 0; e < pg.G.NumEdges(); e++ {
				if rng.Intn(4) == 0 {
					clauses[i].Add(graph.EdgeID(e))
				}
			}
		}
		want, e1 := refSMP(ref, clauses, 200, seed)
		got, e2 := verify.SMP(eng, clauses, verify.Options{N: 200, Seed: seed})
		if (e1 == nil) != (e2 == nil) || !sameBits(want, got) {
			t.Fatalf("seed %d: SMP = %v, %v; reference %v, %v", seed, got, e2, want, e1)
		}
	}
}

// retained reports the heap still held by build's result after collection.
func retained(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestEngineNoLargerThanReference: a database keeps one engine per graph,
// so the compiled form — a flat schedule, JPT tables referenced rather than
// copied, two tables per step — may not retain more than what it replaced.
func TestEngineNoLargerThanReference(t *testing.T) {
	db, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 200, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := retained(func() any {
		out := make([]*prob.RefEngine, len(db.Graphs))
		for i, pg := range db.Graphs {
			out[i], _ = prob.NewRefEngine(pg)
		}
		return out
	})
	got := retained(func() any {
		out := make([]*prob.Engine, len(db.Graphs))
		for i, pg := range db.Graphs {
			out[i], _ = prob.NewEngine(pg)
		}
		return out
	})
	t.Logf("retained per engine: compiled %d B, reference %d B", got/200, ref/200)
	if got > ref {
		t.Fatalf("200 compiled engines retain %d B, the reference engines %d B", got, ref)
	}
}

// TestEngineSteadyStateAllocs pins the //pgvet:noalloc contracts: sampling,
// full or lazy, allocates nothing, and neither does a probability, on the
// base engine or an overlay — its pin vector, dirty-step offsets and tables
// come from pooled scratch.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	rng := rand.New(rand.NewSource(5))
	pg := parityPGraph(rng)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	lits := []prob.Literal{{Edge: pg.UncertainEdges()[0], Present: true}}
	cond, err := eng.NewConditioned(lits)
	if err != nil {
		t.Fatal(err)
	}
	world := graph.NewEdgeSet(eng.NumEdges())
	scratch := make([]bool, eng.NumUncertain())
	if n := testing.AllocsPerRun(100, func() {
		eng.SampleWorldInto(rng, world, scratch)
		cond.SampleWorldInto(rng, world, scratch)
	}); n != 0 {
		t.Errorf("SampleWorldInto allocates %v times per pair of calls, want 0", n)
	}
	lazy, sm := prob.NewLazyWorld(eng), prob.NewSplitMix(1)
	if n := testing.AllocsPerRun(100, func() {
		for _, e := range []*prob.Engine{eng, cond} {
			lazy.Reset(e)
			for ed := 0; ed < eng.NumEdges(); ed++ {
				lazy.Present(&sm, graph.EdgeID(ed))
			}
		}
	}); n != 0 {
		t.Errorf("two lazily drawn worlds allocate %v times, want 0", n)
	}
	for _, e := range []*prob.Engine{eng, cond} {
		if n := testing.AllocsPerRun(100, func() { _, _ = e.ProbLits(lits) }); n != 0 {
			t.Errorf("ProbLits allocates %v times per call, want 0", n)
		}
	}
}

// benchGraph is one graph of the ledger's corpus shape (bench/corpus.go).
func benchGraph(b *testing.B) *prob.PGraph {
	db, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 8, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return db.Graphs[3]
}

func BenchmarkNewEngine(b *testing.B) {
	pg := benchGraph(b)
	for i := 0; i < b.N; i++ {
		if _, err := prob.NewEngine(pg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProbLits(b *testing.B) {
	pg := benchGraph(b)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		b.Fatal(err)
	}
	var lits []prob.Literal
	for _, ed := range pg.UncertainEdges()[:4] {
		lits = append(lits, prob.Literal{Edge: ed, Present: true})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ProbLits(lits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewConditioned conditions on one clause of the same four edges
// as BenchmarkProbLits, as the sampler does per picked clause.
func BenchmarkNewConditioned(b *testing.B) {
	pg := benchGraph(b)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		b.Fatal(err)
	}
	var lits []prob.Literal
	for _, ed := range pg.UncertainEdges()[:4] {
		lits = append(lits, prob.Literal{Edge: ed, Present: true})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.NewConditioned(lits); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleWorldInto(b *testing.B) {
	pg := benchGraph(b)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	world := graph.NewEdgeSet(eng.NumEdges())
	scratch := make([]bool, eng.NumUncertain())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.SampleWorldInto(rng, world, scratch)
	}
}
