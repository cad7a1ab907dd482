package core

import (
	"math/rand"
	"sort"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/verify"
)

func TestQueryTopKMatchesExactRanking(t *testing.T) {
	db, _ := smallDatabase(t, 909, 8, true)
	rng := rand.New(rand.NewSource(21))
	q := dataset.ExtractQuery(db.View().Certain[2], 4, rng)
	const k = 3
	got, err := db.View().QueryTopKCtx(bg, q, k, QueryOptions{
		Delta: 1, OptBounds: true,
		Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Oracle ranking by exhaustive enumeration.
	type item struct {
		gi  int
		ssp float64
	}
	var all []item
	for gi := range db.View().Graphs {
		p, err := db.View().ExactSSPByEnumeration(q, gi, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p > 0 {
			all = append(all, item{gi, p})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ssp > all[j].ssp })
	if len(all) > k {
		all = all[:k]
	}
	if len(got) != len(all) {
		t.Fatalf("top-k returned %d items, oracle has %d", len(got), len(all))
	}
	for i := range got {
		if got[i].Graph != all[i].gi {
			// Ties in SSP can permute; accept if the SSPs match.
			if got[i].SSP != all[i].ssp {
				t.Fatalf("rank %d: got graph %d (%.4f), want %d (%.4f)",
					i, got[i].Graph, got[i].SSP, all[i].gi, all[i].ssp)
			}
		}
		if diff := got[i].SSP - all[i].ssp; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d SSP %v vs oracle %v", i, got[i].SSP, all[i].ssp)
		}
	}
}

func TestQueryTopKValidation(t *testing.T) {
	db, _ := smallDatabase(t, 910, 4, false)
	q := db.View().Certain[0]
	if _, err := db.View().QueryTopKCtx(bg, q, 0, QueryOptions{Delta: 1}); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := db.View().QueryTopKCtx(bg, q, 2, QueryOptions{Delta: -1}); err == nil {
		t.Fatal("negative delta must be rejected")
	}
}

func TestQueryTopKDegenerateDelta(t *testing.T) {
	db, _ := smallDatabase(t, 911, 5, true)
	gb := graph.NewBuilder("tiny")
	u := gb.AddVertex("C0")
	v := gb.AddVertex("C1")
	gb.MustAddEdge(u, v, "")
	res, err := db.View().QueryTopKCtx(bg, gb.Build(), 3, QueryOptions{Delta: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("want 3 trivial matches, got %d", len(res))
	}
	for _, it := range res {
		if it.SSP != 1 {
			t.Fatal("degenerate delta must give SSP 1")
		}
	}
}

func TestQueryBatchMatchesSequential(t *testing.T) {
	db, _ := smallDatabase(t, 912, 8, true)
	rng := rand.New(rand.NewSource(33))
	var qs []*graph.Graph
	for i := 0; i < 5; i++ {
		qs = append(qs, dataset.ExtractQuery(db.View().Certain[i%len(db.View().Certain)], 4, rng))
	}
	opt := QueryOptions{
		Epsilon: 0.4, Delta: 1, OptBounds: true,
		Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
		Seed: 7, Concurrency: 4,
	}
	batch, err := db.View().QueryBatchCtx(bg, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		qo := opt
		qo.Seed = BatchSeed(opt.Seed, i)
		qo.Concurrency = 1
		seq, err := db.View().QueryCtx(bg, q, qo)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIntSet(batch[i].Answers, seq.Answers) {
			t.Fatalf("query %d: batch %v vs sequential %v", i, batch[i].Answers, seq.Answers)
		}
	}
}
