package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"probgraph/internal/dataset"
	"probgraph/internal/relax"
)

// TestBoundsSandwichExactSSP is the central safety property of the whole
// pruning pipeline: for every structural candidate, Usim(q) must upper-
// bound and the sound Lsim(q) must lower-bound the exact subgraph
// similarity probability — otherwise Pruning 1 could drop true answers or
// Pruning 2 could accept false ones.
func TestBoundsSandwichExactSSP(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		raw, err := dataset.GeneratePPI(dataset.PPIOptions{
			NumGraphs: 6, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
			Labels: 3, Organisms: 2, Correlated: true,
			CorrelationBoost: float64(seed%3) * 0.8, // sweep correlation strength
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultBuildOptions()
		opt.Feature.Beta = 0.2
		opt.Feature.Alpha = 0.05
		opt.Feature.Gamma = 0.05
		opt.Feature.MaxL = 3
		opt.PMI.Seed = seed
		db, err := NewDatabase(raw.Graphs, opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 1))
		q := dataset.ExtractQuery(db.View().Certain[int(seed)%len(db.View().Certain)], 4, rng)
		if q.NumEdges() < 2 {
			return true
		}
		const delta = 1
		u := relax.Relaxed(q, delta, 0)
		scq, _ := db.View().Struct.SCq(q, delta, 1)
		for _, optBounds := range []bool{false, true} {
			qo := QueryOptions{Epsilon: 0.5, Delta: delta, OptBounds: optBounds, Seed: seed}
			pr, err := db.View().newPruner(context.Background(), u, qo.withDefaults(), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, gi := range scq {
				exact, err := db.View().ExactSSPByEnumeration(q, gi, delta)
				if err != nil {
					t.Fatal(err)
				}
				sc := getScratch(candSeed(qo.Seed^pruneSalt, gi))
				sc.entries = db.View().PMI.LookupInto(gi, sc.entries[:0])
				upper := pr.upperBound(sc.entries, sc)
				lower := pr.lowerBound(sc.entries, sc)
				putScratch(sc)
				const slack = 1e-9
				if upper < exact-slack {
					t.Logf("seed %d opt=%v graph %d: Usim %v < exact SSP %v", seed, optBounds, gi, upper, exact)
					return false
				}
				if lower > exact+slack {
					t.Logf("seed %d opt=%v graph %d: Lsim %v > exact SSP %v", seed, optBounds, gi, lower, exact)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestStructuralPruningNeverDropsAnswers checks Theorem 1 end to end:
// every graph with nonzero exact SSP must survive structural pruning.
func TestStructuralPruningNeverDropsAnswers(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		raw, err := dataset.GeneratePPI(dataset.PPIOptions{
			NumGraphs: 6, MinVertices: 5, MaxVertices: 7,
			Labels: 3, Organisms: 2, Correlated: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultBuildOptions()
		opt.SkipPMI = true
		db, err := NewDatabase(raw.Graphs, opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
		if q.NumEdges() < 2 {
			return true
		}
		const delta = 1
		scq, _ := db.View().Struct.SCq(q, delta, 1)
		inSCQ := make(map[int]bool, len(scq))
		for _, gi := range scq {
			inSCQ[gi] = true
		}
		for gi := range db.View().Graphs {
			exact, err := db.View().ExactSSPByEnumeration(q, gi, delta)
			if err != nil {
				t.Fatal(err)
			}
			if exact > 0 && !inSCQ[gi] {
				t.Logf("seed %d: graph %d has SSP %v but was structurally pruned", seed, gi, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
