package prob_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// holdsAll reports whether every edge of edges is present in world w.
func holdsAll(w graph.EdgeSet, edges []graph.EdgeID) bool {
	for _, ed := range edges {
		if !w.Contains(ed) {
			return false
		}
	}
	return true
}

// noClauseByEnumeration is Pr(no clause holds | evidence) over base's
// possible worlds, and the evidence's probability.
func noClauseByEnumeration(t testing.TB, base *prob.Engine, evidence []graph.EdgeID, clauses [][]graph.EdgeID) (p, mass float64) {
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

// randomClauses draws up to five clauses of one to three edges over every
// edge, certain ones included; an edge may be drawn twice.
func randomClauses(rng *rand.Rand, numEdges int) [][]graph.EdgeID {
	clauses := make([][]graph.EdgeID, rng.Intn(6))
	for i := range clauses {
		for j := 1 + rng.Intn(3); j > 0; j-- {
			clauses[i] = append(clauses[i], graph.EdgeID(rng.Intn(numEdges)))
		}
	}
	return clauses
}

// edgeSets returns the clauses as edge sets for ProbDNFExact.
func edgeSets(numEdges int, clauses [][]graph.EdgeID) []graph.EdgeSet {
	sets := make([]graph.EdgeSet, len(clauses))
	for i, c := range clauses {
		sets[i] = graph.NewEdgeSet(numEdges)
		for _, ed := range c {
			sets[i].Add(ed)
		}
	}
	return sets
}

// TestProbNoClauseMatchesEnumeration: on every model, for random clause
// lists, the empty list, the empty clause and a clause of certain edges,
// the kernel is within 1e-12 of world enumeration and of inclusion–exclusion
// (ProbDNFExact), on the unconditioned engine and on engines conditioned on
// random evidence.
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
			lists := [][][]graph.EdgeID{
				nil,
				{{}, {0}},
			}
			for i := 0; i < 8; i++ {
				lists = append(lists, randomClauses(rng, ne))
			}
			if certain := graph.EdgeID(-1); pg.NumUncertain() < ne {
				for e := 0; e < ne && certain < 0; e++ {
					if !pg.IsUncertain(graph.EdgeID(e)) {
						certain = graph.EdgeID(e)
					}
				}
				lists = append(lists, [][]graph.EdgeID{{0}, {certain}})
			}
			for li, clauses := range lists {
				var evidence []graph.EdgeID
				if li%3 == 2 {
					evidence = parityEdges(rng, pg)
				}
				at := fmt.Sprintf("round %d %s list %d %v evidence %v", round, name, li, clauses, evidence)
				want, mass := noClauseByEnumeration(t, eng, evidence, clauses)
				e := eng
				if evidence != nil {
					if e, err = eng.NewConditioned(evidence); err != nil {
						t.Fatalf("%s: %v", at, err)
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
				if evidence == nil && len(clauses) <= 20 {
					ie, err := prob.ProbDNFExact(eng, edgeSets(ne, clauses), 0)
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
		clauses := randomClauses(rng, pg.G.NumEdges())
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
	clauses := [][]graph.EdgeID{{0, 15}}
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

// TestEliminationPrice pins the cost on a DNF worked out by hand. Edges 0
// and 1 share a table, edge 2 has its own, and the clauses are {0, 2} and
// {1}. The variables are 0, 1 and 2. Variable 1 goes first (width 2, tied
// with 2, lower index): it multiplies the table of 0 and 1 (4 entries) and
// the clause {1}, of which it writes the 2^(2−1) = 2 entries with 1
// present. Variable 0 goes next (width 2): the clause {0, 2}, 2^(2−2) = 1
// entry, and step 1's table over 0 (4). Variable 2 goes last (width 1):
// its own table (2) and step 2's (2). So ProbNoClause evaluates at a
// budget of 15 and declines at 14, where charging each clause its step's
// 2^width, as the full-scan factor read, costs 20.
func TestEliminationPrice(t *testing.T) {
	b := graph.NewBuilder("price")
	u := b.AddVertex("a")
	for range 3 {
		w := b.AddVertex("a")
		b.MustAddEdge(u, w, "")
		u = w
	}
	pg := prob.MustNew(b.Build(), []prob.JPT{
		{Edges: []graph.EdgeID{0, 1}, P: []float64{0.1, 0.2, 0.3, 0.4}},
		prob.NewIndependentJPT(2, 0.4),
	})
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	clauses := [][]graph.EdgeID{{0, 2}, {1}}
	if cost := eng.EliminationCost(clauses); cost != 15 {
		t.Fatalf("cost %d, worked out by hand 15", cost)
	}
	if old := widthCharge(eng.EliminationSteps(clauses)); old != 20 {
		t.Fatalf("width charge %d, worked out by hand 20", old)
	}
	want, _ := noClauseByEnumeration(t, eng, nil, clauses)
	if p, ok, err := eng.ProbNoClause(clauses, 15); !ok || err != nil || math.Abs(p-want) > 1e-12 {
		t.Fatalf("at a budget of 15: %v, ok %v, %v; enumeration %v", p, ok, err, want)
	}
	if p, ok, err := eng.ProbNoClause(clauses, 14); ok || err != nil {
		t.Fatalf("evaluated to %v at a budget of 14 (%v)", p, err)
	}
}

// TestEliminationPriceNeverAboveWidthCharge: on every ledger-shaped DNF
// (ledgerClasses), every FuzzEliminate seed and random clause lists over
// every model of eliminationModels, the cost ProbNoClause compiles is the
// entries its plan touches — 2^width per table input and 2^(width−k) per
// clause over k variables — and never more than widthCharge, so every DNF
// a budget admitted under the old charge it still admits.
func TestEliminationPriceNeverAboveWidthCharge(t *testing.T) {
	checked, cheaper := 0, 0
	check := func(tag string, e *prob.Engine, clauses [][]graph.EdgeID) {
		t.Helper()
		width, inputs := e.EliminationSteps(clauses)
		if width == nil {
			return
		}
		touched := 0
		for st, w := range width {
			for _, k := range inputs[st] {
				touched += 1 << (w - k)
			}
		}
		cost, old := e.EliminationCost(clauses), widthCharge(width, inputs)
		if cost != touched || cost > old {
			t.Fatalf("%s: cost %d, entries touched %d, width charge %d", tag, cost, touched, old)
		}
		checked++
		if cost < old {
			cheaper++
		}
	}
	for _, lc := range ledgerClasses(t) {
		for i, c := range lc.cands {
			check(fmt.Sprintf("%s candidate %d", lc.name, i), c.eng, c.clauses)
		}
	}
	for _, in := range eliminateSeeds {
		pg, clauses, _ := decodeEliminateInput(t, in)
		if e, err := prob.NewEngine(pg); err == nil {
			check(fmt.Sprintf("seed %v", in), e, clauses)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for _, m := range eliminationModels(t, rng) {
		eng, err := prob.NewEngine(m.pg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			clauses := randomClauses(rng, m.pg.G.NumEdges())
			check(fmt.Sprintf("%s list %d %v", m.name, i, clauses), eng, clauses)
		}
	}
	if cheaper == 0 {
		t.Fatal("no plan is cheaper than its width charge: the clause factors' price is not in the cost")
	}
	t.Logf("%d plans checked, %d cheaper than their width charge", checked, cheaper)
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
		clauses := [][]graph.EdgeID{{0, 1}, {2}}
		cond, err := eng.NewConditioned(pg.UncertainEdges()[:1])
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

// eliminateSeeds is FuzzEliminate's seed corpus.
var eliminateSeeds = [][]byte{
	{},
	{9, 3, 2, 0, 1, 10, 20, 30, 40, 50, 60, 70, 80, 2, 1, 2, 3, 4, 1, 5, 6, 2, 1, 3, 7},
	{4, 5, 1, 0, 200, 1, 2, 1, 1, 3, 3, 1, 2, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 3, 2, 4, 5, 6, 7, 1},
}

// decodeEliminateInput decodes a fuzz input into a small model: at most ten
// edges on a path, JPTs of one to three edges that may overlap, edges no
// table covers left certain, table entries with zeros among them, clauses
// of up to four edges, and now and then evidence. An edge's byte also says
// whether to keep it: one in four is read and dropped.
func decodeEliminateInput(t *testing.T, in []byte) (pg *prob.PGraph, clauses [][]graph.EdgeID, evidence []graph.EdgeID) {
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
	appendEdge := func(edges []graph.EdgeID) []graph.EdgeID {
		if c := b.next(); c/ne%4 != 0 {
			edges = append(edges, graph.EdgeID(c%ne))
		}
		return edges
	}
	clauses = make([][]graph.EdgeID, b.next()%7)
	for i := range clauses {
		for k := b.next() % 5; k > 0; k-- {
			clauses[i] = appendEdge(clauses[i])
		}
	}
	for k := b.next() % 4; k > 0; k-- {
		evidence = appendEdge(evidence)
	}
	return pg, clauses, evidence
}

// FuzzEliminate holds the kernel to world enumeration, and bit for bit to
// the full-scan clause factor, on whatever small model the bytes decode to
// (decodeEliminateInput). The engine built on the model must first match
// the reference engine bit for bit (checkPair, every marginal) or fail with
// the same error.
func FuzzEliminate(f *testing.F) {
	for _, in := range eliminateSeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		pg, clauses, evidence := decodeEliminateInput(t, in)
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
		want, mass := noClauseByEnumeration(t, eng, evidence, clauses)
		e := eng
		if len(evidence) > 0 {
			if e, err = eng.NewConditioned(evidence); err != nil {
				t.Fatalf("evidence %v: %v", evidence, err)
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
		checkFullScan(t, fmt.Sprintf("clauses %v evidence %v", clauses, evidence), e, clauses)
	})
}

// fullScanZero is the clause factor eliminate applied before zeroWhereHolds,
// kept as its reference: it scans every entry m of the step, gathers the
// clause's index from m's bits, and zeroes w0 where that index with the
// summed variable absent is pat — every variable of the scope present —
// and w1 where it is pat with the variable present.
func fullScanZero(w0, w1 []float64, put []int, self int) {
	pat := self
	for _, bit := range put {
		pat |= bit
	}
	for m := range w0 {
		i := 0
		for b, bit := range put {
			if m>>b&1 != 0 {
				i |= bit
			}
		}
		if i == pat {
			w0[m] = 0
		}
		if i|self == pat {
			w1[m] = 0
		}
	}
}

// widthCharge is the cost ProbNoClause charged while clause factors
// scanned every entry of their step (fullScanZero), kept as its reference:
// every input of a step, clause or table, at the step's 2^width. width and
// inputs are a plan as EliminationSteps returns it.
func widthCharge(width []int, inputs [][]int) int {
	cost := 0
	for st, w := range width {
		cost += len(inputs[st]) << w
	}
	return cost
}

// checkFullScan holds e.ProbNoClause to the same elimination run with the
// full-scan clause factor at each budget — core.EliminationBudget and no
// limit when none is given: same value bits, same ok, same error.
func checkFullScan(t *testing.T, tag string, e *prob.Engine, clauses [][]graph.EdgeID, budgets ...int) {
	t.Helper()
	if budgets == nil {
		budgets = []int{core.EliminationBudget, math.MaxInt}
	}
	for _, budget := range budgets {
		p1, ok1, err1 := e.ProbNoClauseWith(clauses, budget, fullScanZero)
		p2, ok2, err2 := e.ProbNoClause(clauses, budget)
		if !sameBits(p1, p2) || ok1 != ok2 || !sameErr(err1, err2) {
			t.Fatalf("%s budget %d: %v, %v, %v; full scan %v, %v, %v", tag, budget, p2, ok2, err2, p1, ok1, err1)
		}
	}
}

// TestProbNoClauseMatchesFullScan holds the clause factor that zeroes only
// the entries where its clause holds to the full scan it replaced, bit for
// bit: first the factor alone, on every output width up to 10 — one-entry
// tables among them — with clauses reading the summed variable or not;
// then whole eliminations on every model of eliminationModels, with random
// clause lists (repeated and certain edges among them) on the
// unconditioned engine and on engines conditioned on evidence, on
// coupled(12)'s wide steps, on FuzzEliminate's seeds, and on every
// ledger-shaped DNF of more than one clause at core.EliminationBudget and
// 2^22.
func TestProbNoClauseMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 4000; trial++ {
		nout := trial % 11
		put := make([]int, nout)
		scope := 0
		for b := range put {
			if rng.Intn(2) == 0 {
				put[b] = 1 << scope
				scope++
			}
		}
		rng.Shuffle(nout, func(i, j int) { put[i], put[j] = put[j], put[i] })
		self := 0
		if rng.Intn(4) != 0 {
			self = 1 << scope
			scope++
		}
		w := [4][]float64{}
		for i := range w {
			w[i] = make([]float64, 1<<nout)
		}
		for m := range w[0] {
			w[0][m], w[1][m] = rng.Float64(), rng.Float64()
		}
		copy(w[2], w[0])
		copy(w[3], w[1])
		fullScanZero(w[0], w[1], put, self)
		prob.ZeroWhereHolds(w[2], w[3], put, self)
		for m := range w[0] {
			if !sameBits(w[0][m], w[2][m]) || !sameBits(w[1][m], w[3][m]) {
				t.Fatalf("put %v self %d: entry %d is %v/%v, full scan %v/%v", put, self, m, w[2][m], w[3][m], w[0][m], w[1][m])
			}
		}
	}
	checked := 0
	for round := 0; round < 6; round++ {
		for _, m := range eliminationModels(t, rng) {
			eng, err := prob.NewEngine(m.pg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 12; i++ {
				clauses := randomClauses(rng, m.pg.G.NumEdges())
				e := eng
				if i%3 == 2 {
					if e, err = eng.NewConditioned(parityEdges(rng, m.pg)); err != nil || e.Z() == 0 {
						continue
					}
				}
				checkFullScan(t, fmt.Sprintf("round %d %s list %d %v", round, m.name, i, clauses), e, clauses)
				checked++
			}
		}
	}
	wide, err := prob.NewEngine(coupled(12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		checkFullScan(t, "coupled(12)", wide, randomClauses(rng, 12))
	}
	for _, in := range eliminateSeeds {
		pg, clauses, evidence := decodeEliminateInput(t, in)
		e, err := prob.NewEngine(pg)
		if err != nil {
			continue
		}
		if len(evidence) > 0 {
			if e, err = e.NewConditioned(evidence); err != nil || e.Z() == 0 {
				continue
			}
		}
		checkFullScan(t, fmt.Sprintf("seed %v", in), e, clauses)
		checked++
	}
	for _, lc := range ledgerClasses(t) {
		for i, c := range lc.cands {
			if len(c.clauses) > 1 {
				checkFullScan(t, fmt.Sprintf("%s candidate %d", lc.name, i), c.eng, c.clauses, core.EliminationBudget, 1<<22)
				checked++
			}
		}
	}
	t.Logf("%d clause lists checked", checked)
}

func containsEdge(edges []graph.EdgeID, ed graph.EdgeID) bool {
	for _, x := range edges {
		if x == ed {
			return true
		}
	}
	return false
}

// BenchmarkProbNoClause eliminates every ledger-shaped DNF of more than one
// clause (ledgerClasses) at core.EliminationBudget, per workload class;
// ns/DNF is the mean over the class's DNFs, declined ones included.
func BenchmarkProbNoClause(b *testing.B) {
	for _, lc := range ledgerClasses(b) {
		var dnfs []ledgerCandidate
		for _, c := range lc.cands {
			if len(c.clauses) > 1 {
				dnfs = append(dnfs, c)
			}
		}
		b.Run(lc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range dnfs {
					if _, _, err := c.eng.ProbNoClause(c.clauses, core.EliminationBudget); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dnfs)), "ns/DNF")
		})
	}
}
