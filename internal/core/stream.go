package core

import (
	"context"
	"iter"
	"sync"

	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/pool"
)

// Match is one verified answer delivered by View.QueryStream: a
// database graph index and the SSP reported for it. SSP mirrors
// Result.SSP: verified answers carry their estimate, direct lower-bound
// accepts (and VerifierNone answers) carry -1 — they were admitted without
// re-estimation.
type Match struct {
	Graph int
	SSP   float64
}

// QueryStream runs the T-PS pipeline for q and yields verified matches as
// the per-candidate prune+verify stage admits them, instead of
// materializing a *Result at the end. The filter-and-verify pipeline
// front-loads cheap pruning, so answers become known one at a time long
// before the scan finishes; streaming hands each to the consumer the
// moment its verification completes.
//
// Delivery order is arrival order — whichever candidate finishes first —
// and therefore scheduling-dependent. The *set* is not: every per-match
// outcome is a pure function of (Seed, graph index), so the collected
// stream, re-sorted by Match.Graph, is bitwise-identical to QueryCtx's
// Answers and SSP estimates at every worker count. Determinism lives in
// the set, arrival order is the only nondeterminism.
//
// The sequence ends in one of three ways:
//   - normally, after the last candidate's outcome was yielded;
//   - with a single (Match{}, err) pair when evaluation fails or ctx is
//     cancelled (err is then ctx.Err(); cancellation is checked per shard
//     and per candidate, exactly as in QueryCtx);
//   - silently, when the consumer breaks out of the loop early — the
//     internal workers are cancelled and joined before the iterator
//     returns, so an abandoned stream leaks no goroutines.
//
// Matches that were already yielded are never retracted; a consumer that
// only needs the first few answers can break as soon as it has them.
func (v *View) QueryStream(ctx context.Context, q *graph.Graph, opt QueryOptions) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		p, err := v.newPlan(ctx, q, opt, false)
		if err != nil {
			yield(Match{}, err)
			return
		}
		scq := p.scq

		// Degenerate relaxation: every live graph matches with SSP 1;
		// stream them in index order.
		if p.degenerate {
			for _, gi := range scq {
				if err := ctx.Err(); err != nil {
					yield(Match{}, err)
					return
				}
				if !yield(Match{Graph: gi, SSP: 1}, nil) {
					return
				}
			}
			return
		}

		// Fan the candidates out over the shared worker pool
		// (forEachIndexCtx, per-candidate cancellation like every other
		// parallel phase). Workers push each admitted match (or the first
		// evaluation error) onto an unbuffered channel; the consumer side
		// of the rendezvous is this iterator's yield loop, so
		// back-pressure from a slow consumer naturally throttles
		// evaluation. inner is cancelled on early break, error, or caller
		// cancellation; every send selects against it, so no worker can
		// block forever on a departed consumer.
		inner, cancel := context.WithCancel(ctx)
		defer cancel()
		type item struct {
			m   Match
			err error
		}
		out := make(chan item)
		finished := make(chan struct{})
		// When a pipeline is attached, the workers tally their outcomes
		// into one Stats (under mu: they race) that is observed once all of
		// them have exited — before finished closes, so the tally is
		// complete on every exit path, including early consumer breaks.
		observed := obs.PipelineFrom(ctx) != nil
		var mu sync.Mutex
		st := p.stats
		go func() {
			defer close(finished)
			sp := obs.SpanFrom(ctx).Child("verify")
			pool.ForEachIndexCtx(inner, len(scq), pool.Normalize(p.opt.Concurrency, len(scq)), func(i int) {
				gi := scq[i]
				o := v.evalCandidate(p, gi)
				if o.err != nil {
					select {
					case out <- item{err: o.err}:
					case <-inner.Done():
					}
					cancel() // stop handing out further candidates
					return
				}
				match, ssp := outcomeMatch(o, p.opt)
				if observed {
					mu.Lock()
					o.tally(&st)
					if match {
						st.Answers++
					}
					mu.Unlock()
				}
				if match {
					select {
					case out <- item{m: Match{Graph: gi, SSP: ssp}}:
					case <-inner.Done():
					}
				}
			})
			sp.EndCount(int64(len(scq)))
			st.observe(ctx)
		}()
		// Join the workers on every exit path — the iterator must not
		// return while pool goroutines are still running.
		join := func() { cancel(); <-finished }

		for {
			select {
			case it := <-out:
				if it.err != nil {
					join()
					yield(Match{}, it.err)
					return
				}
				if !yield(it.m, nil) {
					join()
					return
				}
			case <-finished:
				// All workers exited; out is unbuffered, so no yielded-but-
				// unreceived item can exist. Distinguish completion from
				// caller cancellation.
				if err := ctx.Err(); err != nil {
					yield(Match{}, err)
				}
				return
			}
		}
	}
}
