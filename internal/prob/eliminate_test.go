package prob_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// holdsAll reports whether every literal holds in world w.
func holdsAll(w graph.EdgeSet, lits []prob.Literal) bool {
	for _, l := range lits {
		if w.Contains(l.Edge) != l.Present {
			return false
		}
	}
	return true
}

// noClauseByEnumeration is Pr(no clause holds | evidence) over base's
// possible worlds, and the evidence's probability.
func noClauseByEnumeration(t testing.TB, base *prob.Engine, evidence []prob.Literal, clauses [][]prob.Literal) (p, mass float64) {
	t.Helper()
	num := 0.0
	err := prob.EnumerateWorlds(base, func(w graph.EdgeSet, pw float64) bool {
		if !holdsAll(w, evidence) {
			return true
		}
		mass += pw
		for _, c := range clauses {
			if holdsAll(w, c) {
				return true
			}
		}
		num += pw
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if mass == 0 {
		return 0, 0
	}
	return num / mass, mass
}

// eliminationModels is every kind of small model the prob tests build:
// independent edges (at probability 0 and 1 among them, one edge left
// certain), randomPGraph's correlated models, parityPGraph's overlapping
// tables with zero entries, a fully coupled path, and the paper's Figure 1
// graphs — 002's two tables share an edge, so its Z is not 1.
func eliminationModels(t *testing.T, rng *rand.Rand) []namedModel {
	t.Helper()
	b := graph.NewBuilder("ind")
	prev := b.AddVertex("a")
	for i := 0; i < 7; i++ {
		next := b.AddVertex("a")
		b.MustAddEdge(prev, next, "")
		prev = next
	}
	ind, err := prob.NewIndependent(b.Build(), map[graph.EdgeID]float64{0: 0, 1: 1, 2: 0.3, 3: 0.5, 4: 0.9, 6: rng.Float64()})
	if err != nil {
		t.Fatal(err)
	}
	g001, g002, _, err := dataset.PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	return []namedModel{
		{"independent", ind},
		{"correlated", prob.RandomPGraph(rng, 6, 7)},
		{"parity", parityPGraph(rng)},
		{"coupled", coupled(5)},
		{"figure1-001", g001},
		{"figure1-002", g002},
	}
}

type namedModel struct {
	name string
	pg   *prob.PGraph
}

// randomLitClauses draws up to five clauses of one to three literals over
// every edge, certain ones included, mostly asserting presence as a DNF's
// clauses do.
func randomLitClauses(rng *rand.Rand, numEdges int) [][]prob.Literal {
	clauses := make([][]prob.Literal, rng.Intn(6))
	for i := range clauses {
		for j := 1 + rng.Intn(3); j > 0; j-- {
			clauses[i] = append(clauses[i], prob.Literal{Edge: graph.EdgeID(rng.Intn(numEdges)), Present: rng.Intn(5) != 0})
		}
	}
	return clauses
}

// presentOnly reports whether every literal asserts presence, returning the
// clauses as edge sets for ProbDNFExact.
func presentOnly(numEdges int, clauses [][]prob.Literal) ([]graph.EdgeSet, bool) {
	sets := make([]graph.EdgeSet, len(clauses))
	for i, c := range clauses {
		sets[i] = graph.NewEdgeSet(numEdges)
		for _, l := range c {
			if !l.Present {
				return nil, false
			}
			sets[i].Add(l.Edge)
		}
	}
	return sets, true
}

// TestProbNoClauseMatchesEnumeration: on every model, for random clause
// lists, the empty list, a certain clause and a clause that cannot hold,
// the kernel is within 1e-12 of world enumeration and of inclusion–exclusion
// (ProbDNFExact, where every literal asserts presence), on the unconditioned
// engine and on engines conditioned on random evidence.
func TestProbNoClauseMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for round := 0; round < 12; round++ {
		for _, m := range eliminationModels(t, rng) {
			name, pg := m.name, m.pg
			eng, err := prob.NewEngine(pg)
			if err != nil {
				t.Fatal(err)
			}
			if name == "figure1-002" && math.Abs(eng.Z()-1) < 1e-9 {
				t.Fatalf("figure1-002: Z = %v, the overlapping tables should not normalize to 1", eng.Z())
			}
			ne := pg.G.NumEdges()
			lists := [][][]prob.Literal{
				nil,
				{{{Edge: 0, Present: true}, {Edge: 0, Present: false}}},
				{{}, {{Edge: 0, Present: true}}},
			}
			for i := 0; i < 8; i++ {
				lists = append(lists, randomLitClauses(rng, ne))
			}
			if certain := graph.EdgeID(-1); pg.NumUncertain() < ne {
				for e := 0; e < ne && certain < 0; e++ {
					if !pg.IsUncertain(graph.EdgeID(e)) {
						certain = graph.EdgeID(e)
					}
				}
				lists = append(lists, [][]prob.Literal{{{Edge: 0, Present: true}}, {{Edge: certain, Present: true}}})
			}
			for li, clauses := range lists {
				var evidence []prob.Literal
				if li%3 == 2 {
					evidence = parityLits(rng, pg)
				}
				at := fmt.Sprintf("round %d %s list %d %v evidence %v", round, name, li, clauses, evidence)
				want, mass := noClauseByEnumeration(t, eng, evidence, clauses)
				e := eng
				if evidence != nil {
					if e, err = eng.NewConditioned(evidence); err != nil {
						continue // contradictory evidence
					}
				}
				got, ok, err := e.ProbNoClause(clauses, math.MaxInt)
				if mass == 0 {
					if err == nil {
						t.Fatalf("%s: evidence of probability 0 gave %v, want an error", at, got)
					}
					continue
				}
				if err != nil || !ok {
					t.Fatalf("%s: %v, ok %v", at, err, ok)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("%s: elimination %v, enumeration %v", at, got, want)
				}
				if sets, ok := presentOnly(ne, clauses); ok && evidence == nil && len(sets) <= 20 {
					ie, err := prob.ProbDNFExact(eng, sets, 0)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(got-(1-ie)) > 1e-12 {
						t.Fatalf("%s: elimination %v, inclusion–exclusion 1−%v", at, got, ie)
					}
				}
				checked++
			}
		}
	}
	t.Logf("%d clause lists checked", checked)
}

// TestProbNoClauseBudget: the kernel evaluates at a budget equal to its
// compiled cost and declines one unit below it; and a model whose first
// step alone reads 2^16 entries per factor is declined at the ledger's
// budget scale without allocating, so no table was built for it.
func TestProbNoClauseBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		pg := prob.RandomPGraph(rng, 6, 8)
		eng, err := prob.NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		clauses := randomLitClauses(rng, pg.G.NumEdges())
		cost := eng.EliminationCost(clauses)
		if cost < 0 {
			continue
		}
		if _, ok, err := eng.ProbNoClause(clauses, cost); !ok || err != nil {
			t.Fatalf("model %d: declined at its own cost %d (%v)", i, cost, err)
		}
		if p, ok, err := eng.ProbNoClause(clauses, cost-1); ok || err != nil {
			t.Fatalf("model %d: evaluated to %v one unit below its cost %d (%v)", i, p, cost, err)
		}
	}
	pg := coupled(16)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	clauses := [][]prob.Literal{{{Edge: 0, Present: true}, {Edge: 15, Present: true}}}
	if cost := eng.EliminationCost(clauses); cost < 1<<20 {
		t.Fatalf("coupled(16) costs only %d", cost)
	}
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(10, func() {
		if _, ok, err := eng.ProbNoClause(clauses, 1<<14); ok || err != nil {
			t.Fatalf("coupled(16) evaluated under a budget of 2^14 (%v)", err)
		}
	}); n != 0 {
		t.Fatalf("a declined call allocates %v times", n)
	}
}

// TestProbNoClauseSteadyStateAllocs pins the kernel's //pgvet:noalloc
// contract: a warmed call, conditioned engine included, allocates nothing.
func TestProbNoClauseSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	_, g002, _, err := dataset.PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, pg := range []*prob.PGraph{g002, prob.RandomPGraph(rng, 8, 10)} {
		eng, err := prob.NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		clauses := [][]prob.Literal{{{Edge: 0, Present: true}, {Edge: 1, Present: true}}, {{Edge: 2, Present: true}}}
		cond, err := eng.NewConditioned([]prob.Literal{{Edge: pg.UncertainEdges()[0], Present: true}})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range []*prob.Engine{eng, cond} {
			if n := testing.AllocsPerRun(50, func() {
				if _, ok, err := e.ProbNoClause(clauses, math.MaxInt); !ok || err != nil {
					t.Fatal(ok, err)
				}
			}); n != 0 {
				t.Errorf("ProbNoClause allocates %v times per call, want 0", n)
			}
		}
	}
}

// fuzzBytes reads a fuzz input one byte at a time, 0 once it is exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// FuzzEliminate holds the kernel to world enumeration on whatever small
// model the bytes decode to: at most ten edges on a path, JPTs of one to
// three edges that may overlap, edges no table covers left certain, table
// entries with zeros among them, clauses of up to four literals of either
// polarity, and now and then evidence. The engine built on the model must
// first match the reference engine bit for bit (checkPair, every marginal)
// or fail with the same error.
func FuzzEliminate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 3, 2, 0, 1, 10, 20, 30, 40, 50, 60, 70, 80, 2, 1, 2, 3, 4, 1, 5, 6, 2, 1, 3, 7})
	f.Add([]byte{4, 5, 1, 0, 200, 1, 2, 1, 1, 3, 3, 1, 2, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 3, 2, 4, 5, 6, 7, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		b := fuzzBytes(in)
		ne := 1 + b.next()%10
		gb := graph.NewBuilder("fuzz")
		prev := gb.AddVertex("a")
		for i := 0; i < ne; i++ {
			next := gb.AddVertex("a")
			gb.MustAddEdge(prev, next, "")
			prev = next
		}
		var jpts []prob.JPT
		for n := b.next() % 7; n > 0; n-- {
			var edges []graph.EdgeID
			for k := 1 + b.next()%3; k > 0; k-- {
				ed := graph.EdgeID(b.next() % ne)
				if !containsEdge(edges, ed) {
					edges = append(edges, ed)
				}
			}
			tab := make([]float64, 1<<len(edges))
			sum := 0.0
			for i := range tab {
				tab[i] = float64(b.next() % 5)
				sum += tab[i]
			}
			if sum == 0 {
				tab[len(tab)-1] = 1
			}
			jpts = append(jpts, prob.JPT{Edges: edges, P: tab})
		}
		pg, err := prob.New(gb.Build(), jpts)
		if err != nil {
			t.Fatal(err)
		}
		ref, refErr := prob.NewRefEngine(pg)
		eng, err := prob.NewEngine(pg)
		if !sameErr(refErr, err) {
			t.Fatalf("engine: %v; reference %v", err, refErr)
		}
		if err != nil {
			return
		}
		checkPair(t, "engine", ref, eng, 1)
		checkMarginals(t, "engine", ref, eng)
		lit := func() prob.Literal {
			c := b.next()
			return prob.Literal{Edge: graph.EdgeID(c % ne), Present: c/ne%4 != 0}
		}
		clauses := make([][]prob.Literal, b.next()%7)
		for i := range clauses {
			for k := b.next() % 5; k > 0; k-- {
				clauses[i] = append(clauses[i], lit())
			}
		}
		var evidence []prob.Literal
		for k := b.next() % 4; k > 0; k-- {
			evidence = append(evidence, lit())
		}
		want, mass := noClauseByEnumeration(t, eng, evidence, clauses)
		e := eng
		if len(evidence) > 0 {
			if e, err = eng.NewConditioned(evidence); err != nil {
				return // contradictory evidence
			}
		}
		got, ok, err := e.ProbNoClause(clauses, math.MaxInt)
		switch {
		case mass == 0:
			if err == nil {
				t.Fatalf("evidence %v of probability 0 gave %v, want an error", evidence, got)
			}
		case err != nil || !ok:
			t.Fatalf("clauses %v evidence %v: %v, ok %v", clauses, evidence, err, ok)
		case math.Abs(got-want) > 1e-12:
			t.Fatalf("clauses %v evidence %v: elimination %v, enumeration %v", clauses, evidence, got, want)
		}
	})
}

func containsEdge(edges []graph.EdgeID, ed graph.EdgeID) bool {
	for _, x := range edges {
		if x == ed {
			return true
		}
	}
	return false
}
