package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/obs"
	"probgraph/internal/pool"
	"probgraph/internal/prob"
)

// allocCase is one candidate of one plan with the verdict the bounds give it.
type allocCase struct {
	p       *plan
	gi      int
	verdict judgement
}

// allocFixture builds a corpus and sweeps queries and thresholds for
// candidates on each of the three paths out of the bound stage — pruned by
// Usim, accepted by Lsim, undecided — the steady-state hot path whose
// allocation budget the tests below pin. The plans run VerifierNone, so an
// undecided candidate's evalCandidate ends where the bounds do.
func allocFixture(t *testing.T, optBounds bool) (v *View, cases []allocCase) {
	t.Helper()
	db, raw := snapDB(t, 12)
	v = db.View()
	// Sweep both regular 4-edge queries and 2-edge ones: with 1-edge
	// relaxations the rq ⊆iso f relation is nonempty (features are edges
	// and wedges), so the lower bound can actually decide.
	cands := snapQueries(t, raw, 8)
	qrng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		cands = append(cands, dataset.ExtractQuery(raw.Graphs[i%len(raw.Graphs)].G, 2, qrng))
	}
	var seen [3]int
	for _, cand := range cands {
		for _, eps := range []float64{0.99, 0.7, 0.4, 0.1} {
			opt := QueryOptions{Epsilon: eps, Delta: 1, OptBounds: optBounds, Verifier: VerifierNone, Seed: 7}
			p, err := v.newPlan(bg, cand, opt, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, gi := range p.scq {
				if verdict := p.pr.judge(gi); seen[verdict] < 8 {
					seen[verdict]++
					cases = append(cases, allocCase{p, gi, verdict})
				}
			}
		}
	}
	for verdict, n := range seen {
		if n == 0 {
			t.Fatalf("no query in the fixture sweep produced a candidate with verdict %d (pruned %d, accepted %d, undecided %d)",
				verdict, seen[judgePrune], seen[judgeAccept], seen[judgeUndecided])
		}
	}
	return v, cases
}

// TestEvalCandidateSteadyStateAllocs verifies the hot-path allocation
// budget at one worker: once the scratch pool is warm, the bound stage
// allocates nothing whichever way it decides — pruned, accepted or left to
// verification — because every buffer (PMI row, choice lists, cover
// scratch, rng) comes from the pooled scratch. AllocsPerRun pins
// GOMAXPROCS to 1, so this is exactly the workers=1 configuration.
func TestEvalCandidateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	for _, optBounds := range []bool{false, true} {
		t.Run(fmt.Sprintf("optBounds=%v", optBounds), func(t *testing.T) {
			v, cases := allocFixture(t, optBounds)
			for _, c := range cases {
				if got := v.evalCandidate(c.p, c.gi).verdict; got != c.verdict {
					t.Fatalf("graph %d: verdict %d on a second evaluation, %d on the first", c.gi, got, c.verdict)
				}
			}
			for _, c := range cases {
				if avg := testing.AllocsPerRun(100, func() { _ = v.evalCandidate(c.p, c.gi) }); avg != 0 {
					t.Errorf("evalCandidate allocates %.2f per run on graph %d (verdict %d), want 0", avg, c.gi, c.verdict)
				}
			}
		})
	}
}

// TestOptBoundsSeedNoGenerator: OPT-SSPBound is deterministic — the greedy
// cover and a maximum — so a candidate judged under it never reseeds the
// pooled generator, while the plain baseline, which draws one feature per
// covered rq, seeds it on its first draw.
func TestOptBoundsSeedNoGenerator(t *testing.T) {
	for _, optBounds := range []bool{false, true} {
		v, cases := allocFixture(t, optBounds)
		seeded := 0
		for _, c := range cases {
			_, sc := c.p.pr.usim(c.gi)
			c.p.pr.lowerBound(sc)
			if sc.seed != candSeed(c.p.opt.Seed^pruneSalt, v.GID(c.gi)) {
				t.Fatalf("graph %d: scratch taken for seed %d, not the candidate's", c.gi, sc.seed)
			}
			if sc.seeded {
				seeded++
			}
			putScratch(sc)
		}
		if optBounds && seeded > 0 {
			t.Errorf("OPT bounds seeded the generator for %d of %d candidates", seeded, len(cases))
		}
		if !optBounds && seeded == 0 {
			t.Errorf("plain bounds drew nothing on %d candidates: the fixture is vacuous", len(cases))
		}
	}
}

// TestEvalCandidateParallelAllocs is the same budget at GOMAXPROCS
// workers: the scratch pool hands each worker its own warm buffers, so
// the per-candidate allocation rate stays near zero under parallel
// evaluation too (the small constant measured here is the worker-pool
// spawn itself, amortized over thousands of candidates).
func TestEvalCandidateParallelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	workers := runtime.GOMAXPROCS(0)
	for _, optBounds := range []bool{false, true} {
		t.Run(fmt.Sprintf("optBounds=%v", optBounds), func(t *testing.T) {
			v, cases := allocFixture(t, optBounds)
			reps := make([]allocCase, 0, 4096+len(cases))
			for len(reps) < 4096 {
				reps = append(reps, cases...)
			}
			run := func() error {
				return pool.ForEachIndexCtx(context.Background(), len(reps), workers, func(i int) error {
					_ = v.evalCandidate(reps[i].p, reps[i].gi)
					return nil
				})
			}
			if err := run(); err != nil { // warm one scratch per worker
				t.Fatal(err)
			}
			best := math.Inf(1)
			for trial := 0; trial < 3; trial++ {
				var m0, m1 runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m0)
				if err := run(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&m1)
				if per := float64(m1.Mallocs-m0.Mallocs) / float64(len(reps)); per < best {
					best = per
				}
			}
			if best >= 0.25 {
				t.Errorf("parallel evalCandidate allocates %.3f allocs/candidate at %d workers, want ~0", best, workers)
			}
		})
	}
}

// TestTracingDisabledAddsNoAllocs pins the observability contract on the
// allocation budget: the span instrumentation threaded through the query
// pipeline costs nothing when tracing is off, and a bounded constant —
// independent of the candidate count — when it is on.
//
// Three measurements of the same full v.query call:
//   - plain context (how every pre-observability caller runs),
//   - context that went through ContextWithSpan with a zero Span (the
//     disabled path must be literally the same context, so same allocs),
//   - live trace (extra allocs allowed, but only for the handful of
//     stage/shard spans — never per candidate).
func TestTracingDisabledAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts jitter under the race runtime")
	}
	db, raw := snapDB(t, 12)
	v := db.View()
	q := snapQueries(t, raw, 1)[0]
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 7}.withDefaults()

	run := func(ctx context.Context) {
		if _, err := v.query(ctx, q, opt, nil); err != nil {
			t.Fatal(err)
		}
	}
	run(context.Background()) // warm scratch pools and lazy engines

	plain := testing.AllocsPerRun(50, func() { run(context.Background()) })
	disabled := testing.AllocsPerRun(50, func() {
		run(obs.ContextWithSpan(context.Background(), obs.Span{}))
	})
	if disabled != plain {
		t.Errorf("disabled tracing changes the allocation budget: %.1f allocs vs %.1f plain", disabled, plain)
	}

	traced := testing.AllocsPerRun(50, func() {
		tr := obs.NewTrace()
		root := tr.Root("query")
		run(obs.ContextWithSpan(context.Background(), root))
		root.End()
	})
	// The traced run may allocate the trace, the root, and one span per
	// pipeline stage — a small constant. Anything that scales with
	// candidates (the fixture corpus has 12) is a regression into the
	// per-candidate hot path.
	budget := plain + 8*8
	if traced > budget {
		t.Errorf("traced query allocates %.1f, untraced %.1f; span overhead exceeds constant budget %.1f",
			traced, plain, budget)
	}
}

// TestInsertTopKNoAlloc verifies the third leg of the budget: with the
// +1 overflow slot pre-sized, folding any stream of verification results
// into the ranking never reallocates, and the ranking matches the sort
// order (SSP descending, graph ascending).
func TestInsertTopKNoAlloc(t *testing.T) {
	const k = 10
	rng := rand.New(rand.NewSource(3))
	ssps := make([]float64, 200)
	for i := range ssps {
		ssps[i] = rng.Float64()
	}
	top := make([]TopKItem, 0, k+1)
	avg := testing.AllocsPerRun(100, func() {
		top = top[:0]
		for gi, s := range ssps {
			top = insertTopK(top, TopKItem{Graph: gi, SSP: s}, k)
		}
	})
	if avg != 0 {
		t.Errorf("insertTopK allocates: %.2f allocs per %d-item fold, want 0", avg, len(ssps))
	}
	if len(top) != k {
		t.Fatalf("kept %d items, want %d", len(top), k)
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].SSP < top[i].SSP ||
			(top[i-1].SSP == top[i].SSP && top[i-1].Graph > top[i].Graph) {
			t.Fatalf("ranking out of order at %d: %+v before %+v", i, top[i-1], top[i])
		}
	}
}

// TestTombstoneChurnRetainsNoGraphData is the ledger's serve-churn memory
// row as a unit test: with auto-compaction off, 500 add/remove pairs may
// grow the live heap only by what a dead slot legitimately keeps — its
// structural count row, and a few words of bookkeeping per
// slice (slot pointers, liveness flags, the nil PMI column) — never the
// graph, its JPTs, its engine or its PMI column.
func TestTombstoneChurnRetainsNoGraphData(t *testing.T) {
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 40, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.Feature.Beta, opt.Feature.Alpha, opt.Feature.Gamma, opt.Feature.MaxL = 0.2, 0.1, 0.1, 4
	db, err := NewDatabase(raw.Graphs[:24], opt)
	if err != nil {
		t.Fatal(err)
	}
	// Each added graph is a private copy, so that the database is the only
	// thing that could keep it alive.
	fresh := func(i int) *prob.PGraph {
		src := raw.Graphs[24+i%16]
		jpts := make([]prob.JPT, len(src.JPTs))
		for k, j := range src.JPTs {
			jpts[k] = prob.JPT{Edges: slices.Clone(j.Edges), P: slices.Clone(j.P)}
		}
		return prob.MustNew(src.G.Clone(), jpts)
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const pairs = 500
	// One graph's live footprint, for scale: what every pair would retain
	// if a tombstone kept its data.
	before := heap()
	if _, _, err := db.AddGraph(fresh(0)); err != nil {
		t.Fatal(err)
	}
	perGraph := heap() - before
	if _, err := db.RemoveGraph(db.Len() - 1); err != nil {
		t.Fatal(err)
	}

	before = heap()
	for i := 0; i < pairs; i++ {
		gi, _, err := db.AddGraph(fresh(i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.RemoveGraph(gi); err != nil {
			t.Fatal(err)
		}
	}
	perPair := (heap() - before) / pairs
	nf := int64(len(db.View().Struct.Features))
	// Count row (4 B per structural feature), as much again for append
	// slack, and 256 B for the per-slot words of a dozen slices.
	ceiling := 8*nf + 256
	t.Logf("retained per add/remove pair: %d B (ceiling %d B; a live graph holds %d B)", perPair, ceiling, perGraph)
	if db.View().Tombstones() != pairs+1 {
		t.Fatalf("%d tombstones, want %d", db.View().Tombstones(), pairs+1)
	}
	if perPair > ceiling {
		t.Fatalf("an add/remove pair retains %d B, more than the %d B of count row and bookkeeping a dead slot may keep", perPair, ceiling)
	}
	runtime.KeepAlive(db)
}
