package core

import (
	"maps"
	"slices"
	"testing"
)

// cappedEpsGrid is the thresholds the capped-U tests run at.
var cappedEpsGrid = []float64{0.05, 0.1, 0.2, 0.3, 0.5}

// TestCappedUKeepsAnswers: a cap on U may loosen a bound, never drop an
// answer. Under MaxRelaxed 1 the plan lists one member of U, so Usim is
// the trivial 1 and Pruning 1 never fires, while Lsim, sound on any part
// of U, may still accept. With pruning on, QueryCtx returns the uncapped
// answers, and every graph verified in both runs carries the same SSP.
// A Usim that covered only the listed member pruned answers here, one of
// them at SSP 1.
func TestCappedUKeepsAnswers(t *testing.T) {
	var partial, prunedUncapped, verifiedBoth int
	for seed := int64(41); seed <= 46; seed++ {
		v := ladderDatabase(t, seed, 12).View()
		for qi, q := range ladderQueries(v, seed, 6) {
			for delta := 1; delta <= 2; delta++ {
				for _, eps := range cappedEpsGrid {
					opt := QueryOptions{Epsilon: eps, Delta: delta, OptBounds: true, Seed: seed}
					capped := opt
					capped.MaxRelaxed = 1
					full, err := v.QueryCtx(bg, q, opt)
					if err != nil {
						t.Fatal(err)
					}
					cut, err := v.QueryCtx(bg, q, capped)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(cut.Answers, full.Answers) {
						t.Fatalf("seed %d q %d δ=%d ε=%v: under MaxRelaxed 1 answers %v, uncapped %v (SSPs %v and %v)",
							seed, qi, delta, eps, cut.Answers, full.Answers, cut.SSP, full.SSP)
					}
					for _, gi := range slices.Sorted(maps.Keys(full.SSP)) {
						want := full.SSP[gi]
						got, ok := cut.SSP[gi]
						if !ok || want < 0 || got < 0 {
							continue
						}
						verifiedBoth++
						if got != want {
							t.Fatalf("seed %d q %d δ=%d ε=%v graph %d: SSP %v under MaxRelaxed 1, %v uncapped", seed, qi, delta, eps, gi, got, want)
						}
					}
					if cut.Stats.RelaxedQueries < full.Stats.RelaxedQueries {
						partial++
					}
					prunedUncapped += full.Stats.PrunedByUpper
					if cut.Stats.PrunedByUpper != 0 && cut.Stats.RelaxedQueries < full.Stats.RelaxedQueries {
						t.Fatalf("seed %d q %d δ=%d ε=%v: Pruning 1 fired %d times over a partial U", seed, qi, delta, eps, cut.Stats.PrunedByUpper)
					}
				}
			}
		}
	}
	if partial == 0 || prunedUncapped == 0 || verifiedBoth == 0 {
		t.Fatalf("%d capped queries read part of U, the uncapped ones pruned %d candidates, %d graphs verified in both: the fixture no longer tests the cap",
			partial, prunedUncapped, verifiedBoth)
	}
}

// TestCappedUKeepsRanking: under MaxRelaxed 1 top-k schedules each
// candidate under min(1, V) instead of a Usim that covered one member of
// U and could read below the candidate's SSP, so the ranking is the
// uncapped one.
func TestCappedUKeepsRanking(t *testing.T) {
	rankings := 0
	for seed := int64(41); seed <= 46; seed++ {
		v := ladderDatabase(t, seed, 12).View()
		for qi, q := range ladderQueries(v, seed, 6) {
			for delta := 1; delta <= 2; delta++ {
				for _, k := range []int{1, 3, 5} {
					opt := QueryOptions{Delta: delta, OptBounds: true, Seed: seed}
					capped := opt
					capped.MaxRelaxed = 1
					full, err := v.QueryTopKCtx(bg, q, k, opt)
					if err != nil {
						t.Fatal(err)
					}
					cut, err := v.QueryTopKCtx(bg, q, k, capped)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(cut, full) {
						t.Fatalf("seed %d q %d δ=%d k %d: under MaxRelaxed 1 %v, uncapped %v", seed, qi, delta, k, cut, full)
					}
					if len(full) > 0 {
						rankings++
					}
				}
			}
		}
	}
	if rankings == 0 {
		t.Fatal("no query ranked a candidate")
	}
}
