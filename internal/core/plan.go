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

	// scq is the structural candidate set {g : q ⊆sim gc}, slots ascending.
	scq []int
	// deleted is the relaxed set the pruner reads (Lemma 1), each member
	// as the edges of q it lacks: relax.Members(q, δ, opt.MaxRelaxed).
	deleted []graph.EdgeSet
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
// structural confirmation and verification search q itself with a budget
// of δ, so they are exact whatever MaxRelaxed caps.
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
	parent := obs.SpanFrom(ctx)

	// Relaxed query set U (Lemma 1), as far as pruning reads it.
	sp := parent.Child("relax")
	p.deleted = relax.Members(q, opt.Delta, opt.MaxRelaxed)
	sp.EndCount(int64(len(p.deleted)))
	p.stats.RelaxedQueries = len(p.deleted)

	// Structural pruning (Theorem 1). The count scan is serial; the exact
	// confirmations run on the query's worker pool.
	var err error
	t0 := time.Now()
	sp = parent.Child("struct_filter")
	p.scq, p.stats.StructFilterCandidates, err = v.Struct.SCqCtx(obs.ContextWithSpan(ctx, sp), q, opt.Delta, opt.Concurrency)
	sp.EndCount(int64(len(p.scq)))
	if err != nil {
		return nil, err
	}
	p.stats.StructConfirmed = len(p.scq)
	p.stats.TimeStruct = time.Since(t0)

	if !opt.SkipProbPruning && !ranked {
		t := time.Now()
		sp = parent.Child("pmi_prune")
		p.pr, err = v.newPruner(ctx, q, p.deleted, opt, true)
		sp.End()
		if err != nil {
			return nil, err
		}
		p.stats.TimeProb = time.Since(t)
	}
	return p, nil
}
