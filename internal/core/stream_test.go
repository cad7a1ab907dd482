package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"probgraph/internal/dataset"
	"probgraph/internal/obs"
	"probgraph/internal/verify"
)

// streamSSP is the SSP Query's Result implies for answer gi: the recorded
// estimate when one exists, -1 otherwise (VerifierNone answers have no
// Result.SSP entry but stream as "not re-estimated").
func streamSSP(res *Result, gi int) float64 {
	if ssp, ok := res.SSP[gi]; ok {
		return ssp
	}
	return -1
}

// TestQueryStreamCollectEqualsQuery is the stream/collect identity
// contract: across seeds, worker counts, bound modes, and verifiers, the
// collected stream — re-sorted by graph index — must be bitwise-identical
// to Query's answer set and SSP estimates. Arrival order may differ run to
// run; the set may not.
func TestQueryStreamCollectEqualsQuery(t *testing.T) {
	db, _ := smallDatabase(t, 3001, 10, true)
	rng := rand.New(rand.NewSource(83))
	qs := []int{0, 3, 6}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, optBounds := range []bool{false, true} {
		for _, vk := range []VerifierKind{VerifierSMP, VerifierNone} {
			for _, qi := range qs {
				q := dataset.ExtractQuery(db.View().Certain[qi], 4, rng)
				for seed := int64(1); seed <= 3; seed++ {
					opt := QueryOptions{
						Epsilon: 0.4, Delta: 1, OptBounds: optBounds, Verifier: vk,
						Verify: verify.Options{N: 1200}, Seed: seed,
					}
					want, err := db.View().QueryCtx(bg, q, opt)
					if err != nil {
						t.Fatal(err)
					}
					for _, workers := range workerCounts {
						po := opt
						po.Concurrency = workers
						label := fmt.Sprintf("optBounds=%v/verifier=%d/q=%d/seed=%d/workers=%d",
							optBounds, vk, qi, seed, workers)
						var got []Match
						for m, err := range db.View().QueryStream(context.Background(), q, po) {
							if err != nil {
								t.Fatalf("%s: stream error: %v", label, err)
							}
							got = append(got, m)
						}
						sort.Slice(got, func(i, j int) bool { return got[i].Graph < got[j].Graph })
						if len(got) != len(want.Answers) {
							t.Fatalf("%s: stream yielded %d matches, Query found %d (%v vs %v)",
								label, len(got), len(want.Answers), got, want.Answers)
						}
						for i, m := range got {
							if m.Graph != want.Answers[i] {
								t.Fatalf("%s: sorted stream graph[%d] = %d, Query %d",
									label, i, m.Graph, want.Answers[i])
							}
							if wssp := streamSSP(want, m.Graph); m.SSP != wssp {
								t.Fatalf("%s: SSP[%d] = %v, Query %v (not bitwise)",
									label, m.Graph, m.SSP, wssp)
							}
						}
					}
				}
			}
		}
	}
}

// TestQueryStreamEarlyBreak: a consumer that stops after the first match
// must leave no goroutines behind, and every match it did see must be a
// true Query answer with the identical SSP — early abandonment never
// corrupts what was already delivered.
func TestQueryStreamEarlyBreak(t *testing.T) {
	db, _ := smallDatabase(t, 3002, 10, true)
	rng := rand.New(rand.NewSource(91))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	opt := QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: 7}
	want, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Answers) < 3 {
		t.Fatalf("workload has %d answers, want >= 3 for a meaningful early break (pick new seeds)",
			len(want.Answers))
	}
	wantSSP := make(map[int]float64)
	for _, gi := range want.Answers {
		wantSSP[gi] = streamSSP(want, gi)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for cut := 1; cut <= len(want.Answers); cut++ {
			baseline := runtime.NumGoroutine()
			po := opt
			po.Concurrency = workers
			var got []Match
			for m, err := range db.View().QueryStream(context.Background(), q, po) {
				if err != nil {
					t.Fatalf("workers=%d cut=%d: stream error: %v", workers, cut, err)
				}
				got = append(got, m)
				if len(got) == cut {
					break
				}
			}
			if len(got) != cut {
				t.Fatalf("workers=%d: got %d matches before break, want %d", workers, len(got), cut)
			}
			seen := make(map[int]bool)
			for _, m := range got {
				if seen[m.Graph] {
					t.Fatalf("workers=%d cut=%d: graph %d yielded twice", workers, cut, m.Graph)
				}
				seen[m.Graph] = true
				wssp, ok := wantSSP[m.Graph]
				if !ok {
					t.Fatalf("workers=%d cut=%d: stream yielded non-answer %d", workers, cut, m.Graph)
				}
				if m.SSP != wssp {
					t.Fatalf("workers=%d cut=%d: SSP[%d] = %v, Query %v", workers, cut, m.Graph, m.SSP, wssp)
				}
			}
			checkGoroutineBaseline(t, "QueryStream early break", baseline)
		}
	}
}

// pipelineCounters reads every counter of p.
func pipelineCounters(p *obs.Pipeline) [10]int64 {
	return [10]int64{
		p.StructCandidates.Value(), p.StructConfirmed.Value(), p.PrunedUpper.Value(),
		p.AcceptedLower.Value(), p.Verified.Value(), p.Answers.Value(), p.Relaxed.Value(),
		p.VerifyRejectedByBound.Value(), p.VerifyDecidedExactly.Value(), p.VerifySamples.Value(),
	}
}

// TestQueryStreamObservesLikeQuery: a streamed and a materialised run of one
// query fold the same counters and one non-zero sample per stage into an
// attached obs.Pipeline; a consumer that breaks early still gets the stage
// samples of what was evaluated, never more than the whole query counts.
func TestQueryStreamObservesLikeQuery(t *testing.T) {
	db, _ := smallDatabase(t, 3002, 10, true)
	rng := rand.New(rand.NewSource(91))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	attach := func() (context.Context, *obs.Pipeline) {
		p := obs.NewPipeline(obs.NewRegistry())
		return obs.ContextWithPipeline(context.Background(), p), p
	}
	stages := func(label string, p *obs.Pipeline) {
		t.Helper()
		for _, h := range []*obs.Histogram{p.StageStruct, p.StageProb, p.StageVerify} {
			if h.Count() != 1 || h.Sum() <= 0 {
				t.Fatalf("%s: a stage histogram holds %d samples summing to %v, want one above zero", label, h.Count(), h.Sum())
			}
		}
	}
	for _, workers := range []int{1, 4} {
		opt := QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: 7, Concurrency: workers}
		ctx, whole := attach()
		res, err := db.View().QueryCtx(ctx, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.VerifyCandidates == 0 || res.Stats.SamplesDrawn+res.Stats.DecidedExactly == 0 || len(res.Answers) < 2 {
			t.Fatalf("vacuous workload: %+v", res.Stats)
		}
		stages("materialised", whole)

		ctx, streamed := attach()
		for _, err := range db.View().QueryStream(ctx, q, opt) {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got, want := pipelineCounters(streamed), pipelineCounters(whole); got != want {
			t.Fatalf("workers=%d: stream observed %v, query %v", workers, got, want)
		}
		stages("streamed", streamed)

		ctx, broken := attach()
		for _, err := range db.View().QueryStream(ctx, q, opt) {
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		stages("broken off", broken)
		got, most := pipelineCounters(broken), pipelineCounters(whole)
		if got[5] < 1 || got[0] != most[0] || got[1] != most[1] || got[6] != most[6] {
			t.Fatalf("workers=%d: broken-off stream observed %v, query %v", workers, got, most)
		}
		for i := range got {
			if got[i] > most[i] {
				t.Fatalf("workers=%d: broken-off stream observed %v, more than the whole query's %v", workers, got, most)
			}
		}
	}
}

// TestQueryCtxCancelledObservesOnce: the observe rule holds on the
// cancelled exit too. A QueryCtx cancelled mid-candidates folds exactly one
// sample into each stage histogram of an attached pipeline, its plan's
// counts in full and, of the candidates, only what it evaluated — no
// counter above the whole query's.
func TestQueryCtxCancelledObservesOnce(t *testing.T) {
	db, q, opt := slowQueryEnv(t)
	whole := obs.NewPipeline(obs.NewRegistry())
	start := time.Now()
	if _, err := db.View().QueryCtx(obs.ContextWithPipeline(bg, whole), q, opt); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 50*time.Millisecond {
		t.Skipf("full query took only %v; too fast to cancel mid-candidates reliably", full)
	}
	most := pipelineCounters(whole)
	for _, workers := range []int{1, 4} {
		po := opt
		po.Concurrency = workers
		p := obs.NewPipeline(obs.NewRegistry())
		ctx, cancel := context.WithCancel(obs.ContextWithPipeline(bg, p))
		go func() {
			time.Sleep(full / 8)
			cancel()
		}()
		_, err := db.View().QueryCtx(ctx, q, po)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		for _, h := range []*obs.Histogram{p.StageStruct, p.StageProb, p.StageVerify} {
			if h.Count() != 1 {
				t.Fatalf("workers=%d: a stage histogram holds %d samples, want 1", workers, h.Count())
			}
		}
		got := pipelineCounters(p)
		if got[0] != most[0] || got[1] != most[1] || got[6] != most[6] {
			t.Fatalf("workers=%d: cancelled query observed plan counts %v, whole query %v", workers, got, most)
		}
		for i := range got {
			if got[i] > most[i] {
				t.Fatalf("workers=%d: cancelled query observed %v, more than the whole query's %v", workers, got, most)
			}
		}
	}
}

// TestQueryStreamErrorEqualsQuery: a failing verification ends the stream
// with exactly QueryCtx's error — the lowest failing candidate's, wrapped
// with its graph — at every worker count and on every run, whichever
// worker meets a failure first.
func TestQueryStreamErrorEqualsQuery(t *testing.T) {
	db, _ := smallDatabase(t, 3002, 10, true)
	rng := rand.New(rand.NewSource(91))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	opt := QueryOptions{
		Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: 7,
		Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 1},
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		po := opt
		po.Concurrency = workers
		for run := 0; run < 50; run++ {
			_, want := db.View().QueryCtx(bg, q, po)
			if want == nil {
				t.Fatal("workload does not fail verification (pick a smaller cap)")
			}
			var got error
			for _, err := range db.View().QueryStream(bg, q, po) {
				got = err
			}
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("workers=%d run=%d: stream ended with %v, QueryCtx returned %q", workers, run, got, want)
			}
		}
	}
}

// TestQueryStreamCancelMidStream: cancelling the caller's context ends the
// stream with ctx.Err() as its final element and reclaims the workers.
func TestQueryStreamCancelMidStream(t *testing.T) {
	db, q, opt := slowQueryEnv(t)
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		po := opt
		po.Concurrency = workers
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(20 * time.Millisecond)
			cancel()
		}()
		var finalErr error
		for _, err := range db.View().QueryStream(ctx, q, po) {
			if err != nil {
				finalErr = err
			}
		}
		cancel()
		if !errors.Is(finalErr, context.Canceled) {
			t.Fatalf("workers=%d: final stream error = %v, want context.Canceled", workers, finalErr)
		}
		checkGoroutineBaseline(t, "QueryStream cancel", baseline)
	}
}

// TestQueryStreamPreCancelled: a dead context yields exactly one error
// element and nothing else.
func TestQueryStreamPreCancelled(t *testing.T) {
	db, _ := smallDatabase(t, 3003, 6, true)
	rng := rand.New(rand.NewSource(97))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n, errs := 0, 0
	for m, err := range db.View().QueryStream(ctx, q, QueryOptions{Epsilon: 0.4, Delta: 1}) {
		n++
		if err != nil {
			errs++
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stream error = %v, want Canceled", err)
			}
		} else {
			t.Fatalf("dead context yielded match %+v", m)
		}
	}
	if n != 1 || errs != 1 {
		t.Fatalf("dead context yielded %d elements (%d errors), want exactly 1 error", n, errs)
	}
}

// TestQueryStreamDegenerateDelta: δ ≥ |q| streams every graph with SSP 1,
// matching Query's degenerate fast path.
func TestQueryStreamDegenerateDelta(t *testing.T) {
	db, _ := smallDatabase(t, 3004, 6, true)
	rng := rand.New(rand.NewSource(101))
	q := dataset.ExtractQuery(db.View().Certain[0], 3, rng)
	opt := QueryOptions{Epsilon: 0.4, Delta: q.NumEdges()}
	var got []Match
	for m, err := range db.View().QueryStream(context.Background(), q, opt) {
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	if len(got) != db.Len() {
		t.Fatalf("degenerate stream yielded %d, want %d", len(got), db.Len())
	}
	for i, m := range got {
		if m.Graph != i || m.SSP != 1 {
			t.Fatalf("degenerate match[%d] = %+v, want {%d 1}", i, m, i)
		}
	}
}

// TestQueryStreamBadOptions: invalid thresholds surface as a single error
// element, mirroring Query's validation.
func TestQueryStreamBadOptions(t *testing.T) {
	db, _ := smallDatabase(t, 3005, 6, true)
	rng := rand.New(rand.NewSource(103))
	q := dataset.ExtractQuery(db.View().Certain[0], 3, rng)
	for _, opt := range []QueryOptions{
		{Epsilon: 1.5, Delta: 1},
		{Epsilon: 0.4, Delta: -1},
	} {
		n := 0
		var got error
		for _, err := range db.View().QueryStream(context.Background(), q, opt) {
			n++
			got = err
		}
		if n != 1 || got == nil {
			t.Fatalf("opt %+v: %d elements, err %v — want exactly one error", opt, n, got)
		}
	}
}
