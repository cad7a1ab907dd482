package core

import (
	"context"
	"errors"
	"math/rand"
	"slices"
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

// randomSchedule draws a schedule in verification order with its values:
// bounds and values on a coarse grid so both tie, about a third of the
// values zero, every value at most its bound.
func randomSchedule(rng *rand.Rand, n int) ([]TopKBound, []float64) {
	sched := make([]TopKBound, n)
	for i := range sched {
		sched[i] = TopKBound{Graph: i, Upper: float64(1+rng.Intn(10)) / 10}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].Upper > sched[j].Upper })
	vals := make([]float64, n)
	for i, e := range sched {
		if rng.Intn(3) > 0 {
			vals[i] = e.Upper * float64(1+rng.Intn(4)) / 4
		}
	}
	return sched, vals
}

// TestReplayTopK holds the one rule to the plain serial loop: on random
// schedules, at every window from 1 to n + 1, ReplayTopK returns serialTopK's
// ranking and commits what it valued, asks verify for no index twice, for no
// more than a window at once and for at most window − 1 values past the
// stop; a failure counts exactly when the walk reaches the failing entry;
// and a verify error or a dead context comes back unchanged with no ranking.
func TestReplayTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	boom := errors.New("boom")
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(14) // 0: the empty schedule
		sched, vals := randomSchedule(rng, n)
		for _, k := range []int{1, 2, 1 + rng.Intn(n+1), n + 3} {
			want, stop := serialTopK(sched, k, func(i int) float64 { return vals[i] })
			for window := 1; window <= n+1; window++ {
				// failAt == n never fails; the others fail entry failAt.
				for _, failAt := range []int{n, rng.Intn(n + 1)} {
					asked := make([]bool, n)
					verify := func(_ context.Context, lo, hi int) ([]float64, error) {
						if lo >= hi || hi-lo > window || hi > n {
							t.Fatalf("n %d k %d window %d: verify(%d, %d)", n, k, window, lo, hi)
						}
						if hi > stop+window-1 {
							t.Fatalf("n %d k %d window %d: verify(%d, %d) with the stop at %d", n, k, window, lo, hi, stop)
						}
						for i := lo; i < hi; i++ {
							if asked[i] {
								t.Fatalf("n %d k %d window %d: index %d asked for twice", n, k, window, i)
							}
							asked[i] = true
						}
						if lo <= failAt && failAt < hi {
							return vals[lo:failAt], boom
						}
						return vals[lo:hi], nil
					}
					top, committed, err := ReplayTopK(bg, sched, k, window, verify)
					if failAt < stop {
						if top != nil || committed != failAt || err != boom {
							t.Fatalf("n %d k %d window %d failing at %d: (%v, %d, %v), want (nil, %d, boom)",
								n, k, window, failAt, top, committed, err, failAt)
						}
						continue
					}
					if err != nil || committed != stop || !slices.Equal(top, want) {
						t.Fatalf("n %d k %d window %d failing at %d: (%v, %d, %v), serial loop (%v, %d)",
							n, k, window, failAt, top, committed, err, want, stop)
					}
				}
			}
		}
	}

	// A context that dies while the first window is valued ends the walk
	// where that window ends; one dead from the start asks for nothing.
	sched, vals := randomSchedule(rng, 12)
	for _, cancelAfter := range []int{0, 1} {
		ctx, cancel := context.WithCancel(bg)
		calls := 0
		if cancelAfter == 0 {
			cancel()
		}
		top, committed, err := ReplayTopK(ctx, sched, len(sched), 3, func(_ context.Context, lo, hi int) ([]float64, error) {
			if calls++; calls == cancelAfter {
				cancel()
			}
			return vals[lo:hi], nil
		})
		cancel()
		if top != nil || committed != 3*cancelAfter || calls != cancelAfter || err != context.Canceled {
			t.Fatalf("cancelled after %d calls: (%v, %d, %v) in %d calls, want (nil, %d, Canceled)",
				cancelAfter, top, committed, err, calls, 3*cancelAfter)
		}
	}
}
