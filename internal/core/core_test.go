package core

import (
	"math"
	"math/rand"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
	"probgraph/internal/verify"
)

// smallDatabase builds an indexed database of small graphs where exact
// world enumeration is feasible.
func smallDatabase(t *testing.T, seed int64, n int, correlated bool) (*Database, *dataset.DB) {
	t.Helper()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: n, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
		Labels: 3, Organisms: 2, Correlated: correlated, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return indexSmall(t, raw.Graphs, seed), raw
}

// indexSmall builds the database of smallDatabase over the given graphs.
func indexSmall(t *testing.T, graphs []*prob.PGraph, seed int64) *Database {
	t.Helper()
	opt := DefaultBuildOptions()
	opt.Feature.Beta = 0.2
	opt.Feature.Alpha = 0.05
	opt.Feature.Gamma = 0.05
	opt.Feature.MaxL = 3
	opt.PMI.Seed = seed
	db, err := NewDatabase(graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// naiveAnswers computes the T-PS answer set by full enumeration.
func naiveAnswers(t *testing.T, db *Database, q *graph.Graph, eps float64, delta int) ([]int, map[int]float64) {
	t.Helper()
	var out []int
	ssp := make(map[int]float64)
	for gi := range db.View().Graphs {
		p, err := db.View().ExactSSPByEnumeration(q, gi, delta)
		if err != nil {
			t.Fatal(err)
		}
		ssp[gi] = p
		if p >= eps {
			out = append(out, gi)
		}
	}
	return out, ssp
}

func sameIntSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[int]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

// TestPipelineWithoutBoundsIsExact: structural pruning (Theorem 1) + Lemma 1
// + exact verification must reproduce naive enumeration exactly — no
// heuristic component involved.
func TestPipelineWithoutBoundsIsExact(t *testing.T) {
	for _, correlated := range []bool{false, true} {
		db, _ := smallDatabase(t, 101, 8, correlated)
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 4; trial++ {
			q := dataset.ExtractQuery(db.View().Certain[trial%len(db.View().Certain)], 4, rng)
			for _, delta := range []int{0, 1} {
				eps := 0.4
				res, err := db.View().QueryCtx(bg, q, QueryOptions{
					Epsilon: eps, Delta: delta,
					SkipProbPruning: true,
					Verifier:        VerifierExact,
					Verify:          verify.Options{MaxClauses: 22},
				})
				if err != nil {
					t.Fatalf("correlated=%v trial %d: %v", correlated, trial, err)
				}
				want, ssp := naiveAnswers(t, db, q, eps, delta)
				if !sameIntSet(res.Answers, want) {
					t.Fatalf("correlated=%v trial %d delta %d: pipeline %v vs naive %v (ssp %v)",
						correlated, trial, delta, res.Answers, want, ssp)
				}
			}
		}
	}
}

// TestFullPipelineSoundness: with probabilistic pruning enabled, answers
// must still match naive enumeration — the PMI bounds are sound (exact
// family evaluation), so pruning introduces no errors with the Exact
// verifier.
func TestFullPipelineSoundness(t *testing.T) {
	for _, optBounds := range []bool{false, true} {
		db, _ := smallDatabase(t, 202, 8, true)
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 3; trial++ {
			q := dataset.ExtractQuery(db.View().Certain[trial], 4, rng)
			eps := 0.35
			res, err := db.View().QueryCtx(bg, q, QueryOptions{
				Epsilon: eps, Delta: 1,
				OptBounds: optBounds,
				Verifier:  VerifierExact,
				Verify:    verify.Options{MaxClauses: 22},
				Seed:      int64(trial),
			})
			if err != nil {
				t.Fatalf("optBounds=%v trial %d: %v", optBounds, trial, err)
			}
			want, ssp := naiveAnswers(t, db, q, eps, 1)
			if !sameIntSet(res.Answers, want) {
				t.Fatalf("optBounds=%v trial %d: pipeline %v vs naive %v (ssp %v, stats %+v)",
					optBounds, trial, res.Answers, want, ssp, res.Stats)
			}
		}
	}
}

// TestSMPPipelineCloseToExact: the default SMP verifier must agree with
// naive enumeration except on graphs whose SSP is within sampling noise of
// the threshold.
func TestSMPPipelineCloseToExact(t *testing.T) {
	db, _ := smallDatabase(t, 303, 8, true)
	rng := rand.New(rand.NewSource(11))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	eps := 0.45
	res, err := db.View().QueryCtx(bg, q, QueryOptions{
		Epsilon: eps, Delta: 1,
		OptBounds: true,
		Verifier:  VerifierSMP,
		Verify:    verify.Options{N: 20000},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ssp := naiveAnswers(t, db, q, eps, 1)
	inRes := make(map[int]bool)
	for _, gi := range res.Answers {
		inRes[gi] = true
	}
	const margin = 0.05
	for gi, p := range ssp {
		if math.Abs(p-eps) < margin {
			continue // borderline: sampling may land either side
		}
		if (p >= eps) != inRes[gi] {
			t.Fatalf("graph %d: exact SSP %v vs threshold %v disagrees with pipeline (answered=%v)",
				gi, p, eps, inRes[gi])
		}
	}
}

func TestQueryStatsPopulated(t *testing.T) {
	db, _ := smallDatabase(t, 404, 6, true)
	rng := rand.New(rand.NewSource(13))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	res, err := db.View().QueryCtx(bg, q, QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.RelaxedQueries == 0 {
		t.Fatal("stats: relaxed queries not recorded")
	}
	if s.StructFilterCandidates < s.StructConfirmed {
		t.Fatal("stats: filter candidates < confirmed")
	}
	if s.StructConfirmed != s.PrunedByUpper+s.AcceptedByLower+s.VerifyCandidates {
		t.Fatalf("stats: phase counts inconsistent: %+v", s)
	}
	if s.TimeTotal <= 0 {
		t.Fatal("stats: total time missing")
	}
}

func TestDeltaBeyondQuerySize(t *testing.T) {
	db, _ := smallDatabase(t, 606, 4, true)
	b := graph.NewBuilder("tiny")
	u := b.AddVertex("C0")
	v := b.AddVertex("C1")
	b.MustAddEdge(u, v, "")
	q := b.Build()
	res, err := db.View().QueryCtx(bg, q, QueryOptions{Epsilon: 0.9, Delta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != db.Len() {
		t.Fatalf("δ ≥ |q| must match everything: got %d of %d", len(res.Answers), db.Len())
	}
}

func TestDirectAcceptsAreTrueAnswers(t *testing.T) {
	// Any graph accepted by Pruning 2 must truly have SSP ≥ ε.
	db, _ := smallDatabase(t, 707, 8, true)
	rng := rand.New(rand.NewSource(17))
	found := false
	for trial := 0; trial < 6 && !found; trial++ {
		q := dataset.ExtractQuery(db.View().Certain[trial%len(db.View().Certain)], 3, rng)
		eps := 0.3
		res, err := db.View().QueryCtx(bg, q, QueryOptions{
			Epsilon: eps, Delta: 1, OptBounds: true,
			Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
			Seed: int64(trial),
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.AcceptedByLower == 0 {
			continue
		}
		found = true
		for gi, ssp := range res.SSP {
			if ssp != -1 {
				continue // verified, not direct-accepted
			}
			p, err := db.View().ExactSSPByEnumeration(q, gi, 1)
			if err != nil {
				t.Fatal(err)
			}
			if p < eps-1e-9 {
				t.Fatalf("direct accept of graph %d with true SSP %v < ε %v", gi, p, eps)
			}
		}
	}
	if !found {
		t.Skip("no direct accepts in these trials (acceptable)")
	}
}

func TestVerifierNoneCountsCandidates(t *testing.T) {
	db, _ := smallDatabase(t, 808, 6, true)
	rng := rand.New(rand.NewSource(19))
	q := dataset.ExtractQuery(db.View().Certain[1], 4, rng)
	res, err := db.View().QueryCtx(bg, q, QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Verifier: VerifierNone, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Answers = direct accepts + unpruned candidates.
	if len(res.Answers) != res.Stats.AcceptedByLower+res.Stats.VerifyCandidates {
		t.Fatalf("VerifierNone answer math wrong: %+v", res.Stats)
	}
}

func TestEmptyDatabaseRejected(t *testing.T) {
	if _, err := NewDatabase(nil, DefaultBuildOptions()); err == nil {
		t.Fatal("empty database must be rejected")
	}
}

func TestPaperExample1EndToEnd(t *testing.T) {
	// Example 1: querying with q at δ=1 matches the worlds of 002 that are
	// within one deleted edge, and thresholding at ε below that SSP returns
	// 002. Our fixture fills the JPT rows the paper did not print
	// uniformly, so the exact value differs from the paper's 0.45; the
	// qualitative contract must hold: SSP grows with δ, and the pipeline
	// returns 002 for ε just below the exact SSP.
	g001, g002, q, err := dataset.PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.Feature.Beta = 0.4
	opt.Feature.Alpha = 0.05
	opt.Feature.Gamma = 0.05
	opt.Feature.MaxL = 3
	db, err := NewDatabase([]*prob.PGraph{g001, g002}, opt)
	if err != nil {
		t.Fatal(err)
	}
	ssp0, err := db.View().ExactSSPByEnumeration(q, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ssp1, err := db.View().ExactSSPByEnumeration(q, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !(ssp1 >= ssp0) || ssp1 <= 0 || ssp1 > 1 {
		t.Fatalf("SSP monotonicity broken: δ=0 → %v, δ=1 → %v", ssp0, ssp1)
	}
	eps := ssp1 * 0.9
	if eps <= 0 {
		t.Fatalf("degenerate SSP %v", ssp1)
	}
	res, err := db.View().QueryCtx(bg, q, QueryOptions{
		Epsilon: eps, Delta: 1, OptBounds: true,
		Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, gi := range res.Answers {
		if gi == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("graph 002 not returned at ε=%v (SSP=%v): %+v", eps, ssp1, res.Answers)
	}
}
