package core

import (
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

// TestReplayWalks holds the fleet replay to the plain serial loop: random
// schedules split over 1–3 walks, each of which values its entries up to
// the serial stop and a random number past it (a partition's own rule walks
// at least that far) and then stops at its next entry, replay to
// serialTopK's ranking. A walk cut short before the serial stop, or a later
// walk listing an id again, fails naming that walk.
func TestReplayWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(14) // 0: the empty schedule
		sched, vals := randomSchedule(rng, n)
		for _, k := range []int{1, 2, 1 + rng.Intn(n+1), n + 3} {
			want, stop := serialTopK(sched, k, func(i int) float64 { return vals[i] })
			owned := make([][]int, 1+rng.Intn(3)) // schedule indices per walk
			for i := range sched {
				w := rng.Intn(len(owned))
				owned[w] = append(owned[w], i)
			}
			// split lists each walk's first valued[w] entries and stops at
			// the next one.
			split := func(valued []int) []*TopKWalk {
				walks := make([]*TopKWalk, len(owned))
				for w, own := range owned {
					walks[w] = &TopKWalk{}
					for _, i := range own[:valued[w]] {
						walks[w].Steps = append(walks[w].Steps, TopKStep{sched[i], vals[i]})
					}
					if valued[w] < len(own) {
						walks[w].Stop = &sched[own[valued[w]]]
					}
				}
				return walks
			}
			valued := make([]int, len(owned))
			for w, own := range owned {
				below := sort.SearchInts(own, stop)
				valued[w] = below + rng.Intn(len(own)-below+1)
			}
			walks := split(valued)
			if top, bad, err := ReplayWalks(walks, k); err != nil || !slices.Equal(top, want) {
				t.Fatalf("n %d k %d walks %d: (%v, %d, %v), serial loop %v", n, k, len(walks), top, bad, err, want)
			}

			if n == 0 {
				continue
			}
			// sched[0] is listed, valued or as a stop entry: list it again.
			dup := append(walks, &TopKWalk{Stop: &sched[0]})
			if _, bad, err := ReplayWalks(dup, k); err == nil || bad != len(walks) {
				t.Fatalf("n %d k %d: graph %d listed twice: (%d, %v), want walk %d named", n, k, sched[0].Graph, bad, err, len(walks))
			}
			cut := rng.Intn(len(owned))
			below := sort.SearchInts(owned[cut], stop)
			if below == 0 {
				continue
			}
			short := slices.Clone(valued)
			short[cut] = rng.Intn(below)
			if _, bad, err := ReplayWalks(split(short), k); err == nil || bad != cut {
				t.Fatalf("n %d k %d: walk %d stops at %d of its %d entries below the serial stop: (%d, %v), want it named",
					n, k, cut, short[cut], below, bad, err)
			}
		}
	}
}

// TestReplayWalksStopsOnTie pins the stop rule's tie behaviour on a
// synthetic schedule: once the ranking holds k items, an entry whose Upper
// equals the k-th best SSP is not walked — so graphs 1 and 3, whose SSP
// equals the k-th value and whose ids are smaller than both ranked ones,
// are not listed, and a walk that stops at graph 1 is not reached.
func TestReplayWalksStopsOnTie(t *testing.T) {
	sched := []TopKBound{{Graph: 5, Upper: 0.9}, {Graph: 4, Upper: 0.8}, {Graph: 1, Upper: 0.5}, {Graph: 3, Upper: 0.5}}
	vals := []float64{0.5, 0.5, 0.5, 0.5}
	want := []TopKItem{{Graph: 4, SSP: 0.5}, {Graph: 5, SSP: 0.5}}
	whole := &TopKWalk{}
	for i, e := range sched {
		whole.Steps = append(whole.Steps, TopKStep{e, vals[i]})
	}
	for _, walks := range [][]*TopKWalk{
		{whole},
		{{Steps: whole.Steps[:2]}, {Stop: &sched[2]}},
	} {
		if top, bad, err := ReplayWalks(walks, 2); err != nil || !slices.Equal(top, want) {
			t.Fatalf("%d walks: (%v, %d, %v), want %v", len(walks), top, bad, err, want)
		}
	}
	if top, _ := serialTopK(sched, 2, func(i int) float64 { return vals[i] }); !slices.Equal(top, want) {
		t.Fatalf("serial loop %v, want %v", top, want)
	}
}

// TestQueryTopKWalkFailureParity holds the ranked query's failure rule to
// the serial run: exact verification under a clause cap fails a candidate
// whose DNF is over it, and the error counts only if the walk reaches that
// candidate. At 2, 4 and 8 workers every query returns the serial run's
// error or its ranking, bitwise. Both outcomes occur, and so do rankings
// with a failing entry past the stop — the ladder databases' certain
// clauses stop walks early, so a window at w workers values such entries.
func TestQueryTopKWalkFailureParity(t *testing.T) {
	small, _ := smallDatabase(t, 909, 12, true)
	failed, ranked, failingPastStop := 0, 0, 0
	for _, db := range []*Database{small, ladderDatabase(t, 909, 12), ladderDatabase(t, 51, 14)} {
		v := db.View()
		for qi, q := range ladderQueries(v, 909, 6) {
			for _, maxClauses := range []int{2, 4, 6, 8, 12, 16} {
				for k := 1; k <= 4; k++ {
					opt := QueryOptions{Delta: 1 + qi%2, OptBounds: true, Seed: int64(qi),
						Verifier: VerifierExact, Verify: verify.Options{MaxClauses: maxClauses}}
					serial, serr := v.QueryTopKWalk(bg, q, k, opt)
					if serr != nil {
						failed++
					} else {
						ranked++
						sched, _, err := v.QueryTopKBounds(bg, q, k, opt)
						if err != nil {
							t.Fatal(err)
						}
						var past []int
						for _, e := range sched[len(serial.Steps):] {
							past = append(past, e.Graph)
						}
						if _, err := v.VerifySSPBatch(bg, q, past, opt); err != nil {
							failingPastStop++
						}
					}
					for _, workers := range []int{2, 4, 8} {
						po := opt
						po.Concurrency = workers
						par, err := v.QueryTopKWalk(bg, q, k, po)
						switch {
						case serr != nil:
							if err == nil || err.Error() != serr.Error() {
								t.Fatalf("q %d cap %d k %d workers %d: error %v, serial %v", qi, maxClauses, k, workers, err, serr)
							}
						case err != nil || !slices.Equal(par.Top, serial.Top):
							t.Fatalf("q %d cap %d k %d workers %d: (%v, %v), serial %v", qi, maxClauses, k, workers, par, err, serial.Top)
						}
					}
				}
			}
		}
	}
	t.Logf("%d queries failed, %d ranked, %d of them with a failing entry past the stop", failed, ranked, failingPastStop)
	if failed == 0 || ranked == 0 || failingPastStop == 0 {
		t.Fatalf("%d queries failed, %d ranked, %d with a failing entry past the stop: want each", failed, ranked, failingPastStop)
	}
}
