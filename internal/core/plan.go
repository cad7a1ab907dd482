package core

import (
	"context"
	"time"

	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/relax"
)

// plan is the query-side half of one evaluation: everything that depends
// on (q, options, view) and not on which candidate is being judged. Every
// query entry point — QueryCtx, QueryBatchCtx, QueryStream, QueryTopKWalk,
// QueryTopKBounds — starts from newPlan and differs only in what it does
// with the candidates afterwards.
type plan struct {
	q   *graph.Graph
	opt QueryOptions // defaulted and validated

	// degenerate marks δ ≥ |E(q)|: the empty relaxed query embeds in every
	// world, so every live graph matches with SSP 1. scq then lists every
	// live slot and no stage below ran.
	degenerate bool

	// scq is the structural candidate set {g : q ⊆sim gc}, slots ascending,
	// and sets[i] the clauses scq[i] was confirmed by: its DNF of Equation
	// 22, capped at DefaultMaxClausesPerCandidate (nil in a threshold plan
	// with VerifierNone, which verifies nothing).
	scq  []int
	sets [][]graph.EdgeSet
	// deleted is the relaxed set the pruner reads (Lemma 1), each member
	// as the edges of q it lacks: relax.Enumerate(q, δ, opt.MaxRelaxed).
	// partial marks a prefix of U, cut by that cap or the walk's budget.
	deleted []graph.EdgeSet
	partial bool
	// pr judges candidates against the PMI bounds; nil when the view has no
	// PMI, pruning is bypassed, or the plan is a ranked one (topkSchedule
	// builds its own inside the bounds stage).
	pr *pruner

	// stats holds the front half's share of Stats: filter and relaxed-set
	// counts, TimeStruct, and the pruner's construction in TimeProb.
	stats Stats
}

// newPlan runs the query-side front half once: defaults and validation,
// the degenerate answer, then relax → struct_filter → pmi_prune, each under
// its span of the context's current span. U is derived here and nowhere per
// candidate, as deletion masks over q, and only the pruner reads it:
// structural confirmation searches q itself with a budget of δ, so it is
// exact whatever MaxRelaxed caps, and the clauses it enumerates are the
// ones verification reads. A U cut short, by MaxRelaxed or the walk's
// budget, leaves Usim at the trivial 1.
// ranked marks the top-k forms, which never drop a candidate on a bound:
// they skip pmi_prune and topkSchedule orders them in its own bounds stage.
func (v *View) newPlan(ctx context.Context, q *graph.Graph, opt QueryOptions, ranked bool) (*plan, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &plan{q: q, opt: opt}
	if opt.Delta >= q.NumEdges() {
		p.degenerate = true
		p.scq = v.liveSlots()
		return p, nil
	}

	// Relaxed query set U (Lemma 1), as far as pruning reads it.
	obs.Stage(ctx, "relax", func(context.Context) (int64, error) {
		var complete bool
		p.deleted, complete = relax.Enumerate(q, opt.Delta, opt.MaxRelaxed)
		p.partial = !complete
		return int64(len(p.deleted)), nil
	})
	p.stats.RelaxedQueries = len(p.deleted)

	// Structural pruning (Theorem 1). The count scan is serial; the exact
	// confirmations run on the query's worker pool, and each enumerates the
	// clauses verification reads, unless nothing will read them.
	limit := DefaultMaxClausesPerCandidate
	if opt.Verifier == VerifierNone && !ranked {
		limit = 1
	}
	t0 := time.Now()
	err := obs.Stage(ctx, "struct_filter", func(ctx context.Context) (int64, error) {
		var err error
		p.scq, p.sets, p.stats.StructFilterCandidates, err = v.Struct.SCqSetsCtx(ctx, q, opt.Delta, opt.Concurrency, limit)
		return int64(len(p.scq)), err
	})
	if err != nil {
		return nil, err
	}
	p.stats.StructConfirmed = len(p.scq)
	p.stats.TimeStruct = time.Since(t0)

	if !opt.SkipProbPruning && !ranked {
		t := time.Now()
		err := obs.Stage(ctx, "pmi_prune", func(ctx context.Context) (int64, error) {
			var err error
			p.pr, err = v.newPruner(ctx, q, p.deleted, opt, true)
			return 0, err
		})
		if err != nil {
			return nil, err
		}
		p.pr.partial = p.partial
		p.stats.TimeProb = time.Since(t)
	}
	return p, nil
}
