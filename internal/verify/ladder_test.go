package verify

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// ladderModel is randomModel with the edge cases the ladder must survive:
// edges left certain, and independent edges at probability 0 and 1 beside
// the correlated tables.
func ladderModel(t testing.TB, rng *rand.Rand) (*prob.PGraph, *prob.Engine) {
	nv, ne := 5+rng.Intn(3), 6+rng.Intn(4)
	b := graph.NewBuilder("m")
	for i := 0; i < nv; i++ {
		b.AddVertex("a")
	}
	for tries, added := 0, 0; added < ne && tries < 30*ne; tries++ {
		u, v := graph.VertexID(rng.Intn(nv)), graph.VertexID(rng.Intn(nv))
		if u == v {
			continue
		}
		if _, err := b.AddEdge(u, v, ""); err == nil {
			added++
		}
	}
	g := b.Build()
	var jpts []prob.JPT
	for e := 0; e < g.NumEdges(); {
		switch r := rng.Intn(10); {
		case r == 0: // certain edge: no table
			e++
		case r == 1:
			jpts = append(jpts, prob.NewIndependentJPT(graph.EdgeID(e), 0))
			e++
		case r == 2:
			jpts = append(jpts, prob.NewIndependentJPT(graph.EdgeID(e), 1))
			e++
		default:
			k := min(1+rng.Intn(2), g.NumEdges()-e)
			j := prob.JPT{P: make([]float64, 1<<k)}
			for i := 0; i < k; i++ {
				j.Edges = append(j.Edges, graph.EdgeID(e+i))
			}
			for i := range j.P {
				j.P[i] = 0.1 + rng.Float64()
			}
			jpts = append(jpts, j)
			e += k
		}
	}
	pg := prob.MustNew(g, jpts)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	return pg, eng
}

// epsGrid is the threshold grid of the decision-parity checks.
var epsGrid = []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}

// TestLadderRungsWithinBound: on DNFs with certain clauses, impossible
// clauses, more clauses than MaxClauses and sums V above 1, every value
// Exact or Sample returns — thresholded or not — is at most Bound, compared
// bitwise; a thresholded Sample decides every ε as the full run does and
// returns the full run's value whenever that is an answer; Exact equals
// world enumeration.
func TestLadderRungsWithinBound(t *testing.T) {
	certain, impossible, truncated, clamped := 0, 0, 0, 0
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		pg, eng := ladderModel(t, rng)
		clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), 1+rng.Intn(14)))
		opt := Options{N: 300, Seed: seed, MaxClauses: []int{0, 0, 5}[seed%3]}
		d, err := Prepare(eng, clauses, opt)
		if err != nil {
			t.Fatal(err)
		}
		full, err := SMP(eng, clauses, opt)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case d.Clauses() == 0 && d.Bound() == 1:
			certain++
		case d.Clauses() == 0:
			impossible++
		case d.Clauses() < len(clauses):
			truncated++
		}
		if d.v > 1 {
			clamped++
		}
		if full > d.Bound() {
			t.Fatalf("seed %d: SMP %v above bound %v", seed, full, d.Bound())
		}
		for _, eps := range epsGrid {
			got, drawn, err := d.Sample(eps)
			if err != nil {
				t.Fatal(err)
			}
			if got > d.Bound() {
				t.Fatalf("seed %d ε %v: Sample %v above bound %v", seed, eps, got, d.Bound())
			}
			if (got >= eps) != (full >= eps) {
				t.Fatalf("seed %d ε %v: thresholded Sample %v decides against the full run %v", seed, eps, got, full)
			}
			if full >= eps && (got != full || (d.Clauses() > 0 && drawn != opt.N)) {
				t.Fatalf("seed %d ε %v: answer value %v after %d samples, full run %v", seed, eps, got, drawn, full)
			}
		}
		if d.Clauses() > 12 {
			continue
		}
		exact, err := d.Exact(0)
		if err != nil {
			t.Fatal(err)
		}
		if exact > d.Bound() {
			t.Fatalf("seed %d: Exact %v above bound %v", seed, exact, d.Bound())
		}
		if d.Clauses() == len(clauses) || d.Clauses() == 0 {
			if want := enumerationDNF(t, eng, clauses); math.Abs(exact-want) > 1e-12 {
				t.Fatalf("seed %d: Exact %v, enumeration %v", seed, exact, want)
			}
		}
	}
	if certain == 0 || impossible == 0 || truncated == 0 || clamped == 0 {
		t.Fatalf("fixture misses an edge case: %d certain, %d impossible, %d truncated, %d with V > 1",
			certain, impossible, truncated, clamped)
	}
}

// TestLadderSureRejectStops: the sure-reject stop really saves samples, and
// what it reports is the bound that proved the reject.
func TestLadderSureRejectStops(t *testing.T) {
	stopped, runs := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		pg, eng := randomModel(t, rng, 7, 10)
		clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), 12))
		d, err := Prepare(eng, clauses, Options{N: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		full, _, _ := d.Sample(0)
		if full == d.Bound() {
			continue // nothing lies between the estimate and rung 2
		}
		runs++
		eps := (full + d.Bound()) / 2 // above the estimate, below rung 2
		got, drawn, err := d.Sample(eps)
		if err != nil {
			t.Fatal(err)
		}
		if got >= eps || got < full {
			t.Fatalf("seed %d: reject value %v outside [estimate %v, ε %v)", seed, got, full, eps)
		}
		if drawn < 2000 {
			stopped++
		}
	}
	if runs < 30 || stopped < runs*3/4 {
		t.Fatalf("sure-reject stopped only %d of %d rejected runs early", stopped, runs)
	}
}

// BenchmarkExactVsSample times the two evaluations of a prepared DNF by
// clause count at the ledger's N = 800, on random clauses — the worst case
// for inclusion–exclusion, whose memo only pays when clause unions repeat as
// they do among embeddings. core.exactCrossover must not lose even here.
func BenchmarkExactVsSample(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pg, eng := randomModel(b, rng, 14, 20)
	for _, n := range []int{2, 4, 6, 8, 9, 10, 11, 12, 14} {
		var d *DNF
		for d == nil || d.Clauses() != n {
			clauses := DedupClauses(randomClauses(rng, pg.G.NumEdges(), n+rng.Intn(3)))
			var err error
			if d, err = Prepare(eng, clauses, Options{N: 800, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("exact/clauses=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := d.Exact(30); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sample/clauses=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := d.Sample(0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSampleSteadyStateAllocs pins what a prepared DNF's Sample allocates:
// the clause CDF, the conditioned-engine slots and the lazy world's three
// slabs (edges known present, edges known absent, decided variables), then
// four allocations — engine, pin vector, per-step table offsets, and the
// overlay slab of the clause's dirty steps — per conditioned engine, one per
// clause after the first, every one of which N = 800 samples pick. No
// generator state is allocated.
func TestSampleSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pg, eng := randomModel(t, rng, 7, 10)
	d, err := Prepare(eng, DedupClauses(randomClauses(rng, pg.G.NumEdges(), 5)), Options{N: 800, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Clauses() < 3 {
		t.Fatalf("fixture has %d clauses", d.Clauses())
	}
	n := testing.AllocsPerRun(20, func() {
		if _, _, err := d.Sample(0); err != nil {
			t.Fatal(err)
		}
	})
	if want := 5 + 4*(d.Clauses()-1); n != float64(want) {
		t.Fatalf("Sample over %d clauses allocates %v times, want %d", d.Clauses(), n, want)
	}
}

// TestTruncationBoundCoversEveryClause: Bound is V over every clause, not
// over the MaxClauses prefix. Four independent edges at 0.2 as four clauses,
// two kept: the prefix's V is 0.4 and the DNF's probability 1 − 0.8⁴ ≈ 0.59,
// so a threshold of 0.5 may not reject it on the bound.
func TestTruncationBoundCoversEveryClause(t *testing.T) {
	const eps = 0.5
	b := graph.NewBuilder("star")
	hub := b.AddVertex("a")
	var jpts []prob.JPT
	for i := 0; i < 4; i++ {
		ed := b.MustAddEdge(hub, b.AddVertex("a"), "")
		jpts = append(jpts, prob.JPT{Edges: []graph.EdgeID{ed}, P: []float64{0.8, 0.2}})
	}
	pg := prob.MustNew(b.Build(), jpts)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	clauses := make([]graph.EdgeSet, 4)
	for i := range clauses {
		clauses[i] = graph.NewEdgeSet(4)
		clauses[i].Add(graph.EdgeID(i))
	}
	d, err := Prepare(eng, clauses, Options{N: 300, Seed: 1, MaxClauses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.Clauses() != 2 || d.v >= eps {
		t.Fatalf("fixture: %d clauses kept, prefix V %v", d.Clauses(), d.v)
	}
	if d.Bound() < eps {
		t.Fatalf("Bound %v below ε %v: the truncated DNF is rejected although Pr = %v", d.Bound(), eps, 1-math.Pow(0.8, 4))
	}
	full, err := Prepare(eng, clauses, Options{N: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bound() != full.Bound() {
		t.Fatalf("truncated Bound %v, untruncated %v", d.Bound(), full.Bound())
	}
	if got, _, err := d.Sample(0); err != nil || got > d.Bound() || got > d.v {
		t.Fatalf("Sample = %v, %v; prefix V %v, Bound %v", got, err, d.v, d.Bound())
	}
}
