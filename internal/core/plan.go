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
// query entry point — QueryCtx, QueryBatchCtx, QueryStream, QueryTopKCtx,
// QueryTopKBounds — starts from newPlan and differs only in what it does
// with the candidates afterwards.
type plan struct {
	opt QueryOptions // defaulted and validated

	// degenerate marks δ ≥ |E(q)|: the empty relaxed query embeds in every
	// world, so every live graph matches with SSP 1. scq then lists every
	// live slot and no stage below ran.
	degenerate bool

	// scq is the structural candidate set {g : q ⊆sim gc}, slots ascending.
	scq []int
	// u is the relaxed set pruning and verification read (Lemma 1): the
	// first opt.MaxRelaxed members of relax.Relaxed(q, δ), all of them at 0.
	u []*graph.Graph
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
// candidate: structural confirmation, the pruner and verification all read
// this one derivation. ranked marks the top-k forms, which never drop a
// candidate on a bound: they skip pmi_prune and topkSchedule orders them in
// its own bounds stage. cache (nil outside QueryBatchCtx) shares feature
// relations across plans.
func (v *View) newPlan(ctx context.Context, q *graph.Graph, opt QueryOptions, ranked bool, cache *relCache) (*plan, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &plan{opt: opt}
	if opt.Delta >= q.NumEdges() {
		p.degenerate = true
		for gi := range v.Graphs {
			if v.Live(gi) {
				p.scq = append(p.scq, gi)
			}
		}
		return p, nil
	}
	parent := obs.SpanFrom(ctx)

	// Relaxed query set U (Lemma 1). Confirmation tests against all of it;
	// MaxRelaxed caps only what pruning and verification pay for, and
	// Relaxed(q, δ, m) is a prefix of Relaxed(q, δ, 0), so one derivation
	// serves both.
	sp := parent.Child("relax")
	full := relax.Relaxed(q, opt.Delta, max(opt.MaxRelaxed, relax.DefaultMaxSize))
	p.u = full
	if opt.MaxRelaxed > 0 && opt.MaxRelaxed < len(full) {
		p.u = full[:opt.MaxRelaxed]
	}
	sp.EndCount(int64(len(p.u)))
	p.stats.RelaxedQueries = len(p.u)

	// Structural pruning (Theorem 1). The inverted-postings scan and the
	// exact confirmations share the query's worker pool.
	var err error
	t0 := time.Now()
	sp = parent.Child("struct_filter")
	p.scq, p.stats.StructFilterCandidates, err = v.Struct.SCqVia(obs.ContextWithSpan(ctx, sp), q, full, opt.Delta, opt.Concurrency)
	sp.EndCount(int64(len(p.scq)))
	if err != nil {
		return nil, err
	}
	p.stats.StructConfirmed = len(p.scq)
	p.stats.TimeStruct = time.Since(t0)

	if v.PMI != nil && !opt.SkipProbPruning && !ranked {
		t := time.Now()
		sp = parent.Child("pmi_prune")
		p.pr, err = v.newPruner(ctx, p.u, opt, cache)
		sp.End()
		if err != nil {
			return nil, err
		}
		p.stats.TimeProb = time.Since(t)
	}
	return p, nil
}
