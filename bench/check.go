package main

import (
	"context"
	"fmt"
	"math"

	"probgraph/internal/core"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

// shapeWorkload is the query set of the paper-shape check: eight six-edge
// queries, small enough to sweep nine (ε, δ) settings in seconds and large
// enough that δ = 2 leaves DNFs on which inclusion–exclusion is expensive.
var shapeWorkload = workload{
	name:          "paper-shape",
	classes:       []queryClass{{edges: 6, count: 8, epsilon: 0.5, delta: 1}},
	seedsPerQuery: 1,
}

// runCheck asserts the qualitative results of the paper's evaluation
// (arXiv:1205.6692 §7) on counts, so that a change which buys speed by
// weakening the filter, the bounds or the sampler fails here:
//
//   - structurally confirmed graphs and pruning survivors do not grow with ε
//     and do not shrink with δ (Figs 10–11);
//   - OPT-SSPBound decides at least as many candidates as plain SSPBound
//     (Fig 12);
//   - SMP is cheaper than exact inclusion–exclusion on large DNFs and within
//     0.1 of it (Figs 9, 13).
func runCheck(ctx context.Context) (ok bool, err error) {
	c, err := newCorpus(shapeWorkload)
	if err != nil {
		return false, err
	}
	db, err := core.NewDatabase(c.graphs, c.build)
	if err != nil {
		return false, err
	}
	v := db.View()
	failed := 0
	assert := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%s %s\n", verdict, fmt.Sprintf(format, args...))
	}

	// counts[δ][ε index] summed over the queries.
	epsilons := []float64{0.3, 0.5, 0.7}
	deltas := []int{0, 1, 2}
	type cell struct{ confirmed, survivors, decided int }
	sweep := func(optBounds bool) ([][]cell, error) {
		out := make([][]cell, len(deltas))
		for di, delta := range deltas {
			out[di] = make([]cell, len(epsilons))
			for ei, eps := range epsilons {
				for qi, q := range c.queries {
					r, err := v.QueryCtx(ctx, q.g, core.QueryOptions{
						Epsilon: eps, Delta: delta, OptBounds: optBounds, Verifier: core.VerifierNone,
						Seed: int64(qi) + 1, Concurrency: -1,
					})
					if err != nil {
						return nil, err
					}
					out[di][ei].confirmed += r.Stats.StructConfirmed
					out[di][ei].survivors += r.Stats.VerifyCandidates + r.Stats.AcceptedByLower
					out[di][ei].decided += r.Stats.PrunedByUpper + r.Stats.AcceptedByLower
				}
			}
		}
		return out, nil
	}
	opt, err := sweep(true)
	if err != nil {
		return false, err
	}
	plain, err := sweep(false)
	if err != nil {
		return false, err
	}
	for di, delta := range deltas {
		for ei := 1; ei < len(epsilons); ei++ {
			a, b := opt[di][ei-1], opt[di][ei]
			assert(b.survivors <= a.survivors, "δ=%d: survivors %d at ε=%.1f ≤ %d at ε=%.1f",
				delta, b.survivors, epsilons[ei], a.survivors, epsilons[ei-1])
		}
	}
	for ei, eps := range epsilons {
		for di := 1; di < len(deltas); di++ {
			a, b := opt[di-1][ei], opt[di][ei]
			assert(b.confirmed >= a.confirmed && b.survivors >= a.survivors,
				"ε=%.1f: confirmed %d, survivors %d at δ=%d ≥ %d, %d at δ=%d",
				eps, b.confirmed, b.survivors, deltas[di], a.confirmed, a.survivors, deltas[di-1])
		}
	}
	decidedOpt, decidedPlain := 0, 0
	for di := range deltas {
		for ei := range epsilons {
			decidedOpt += opt[di][ei].decided
			decidedPlain += plain[di][ei].decided
		}
	}
	assert(decidedOpt >= decidedPlain, "OPT-SSPBound decides %d candidates ≥ plain SSPBound's %d", decidedOpt, decidedPlain)

	// SMP against exact on the largest DNFs the exact cap admits.
	var smpMS, exactMS, worst float64
	pairs := 0
	for qi, q := range c.queries {
		scq, _ := v.Struct.SCq(q.g, 2, 1)
		u := relax.Relaxed(q.g, 2, 0)
		for _, gi := range scq {
			clauses := clausesOf(v, u, gi)
			if len(clauses) < exactClauseCap-4 || len(clauses) > exactClauseCap {
				continue
			}
			eng, err := v.Engine(gi)
			if err != nil {
				continue
			}
			var exact, smp float64
			exactMS += timeMS(func() { exact, err = verify.Exact(eng, clauses, exactClauseCap) })
			if err != nil {
				continue
			}
			smpMS += timeMS(func() { smp, err = verify.SMP(eng, clauses, verify.Options{N: smpSamples, Seed: int64(qi) + 1}) })
			if err != nil {
				continue
			}
			worst = math.Max(worst, math.Abs(smp-exact))
			pairs++
			break // one pair per query keeps the check within seconds
		}
	}
	assert(pairs > 0, "found %d (query, graph) pairs with %d–%d clauses", pairs, exactClauseCap-4, exactClauseCap)
	assert(smpMS < exactMS, "verify.smp_ms %.2f < verify.exact_ms %.2f over %d pairs", smpMS, exactMS, pairs)
	assert(worst <= 0.1, "verify.smp_abs_err_max %.4f ≤ 0.1", worst)
	if failed > 0 {
		fmt.Printf("paper-shape check: %d assertion(s) failed\n", failed)
		return false, nil
	}
	fmt.Println("paper-shape check: all assertions hold")
	return true, nil
}
