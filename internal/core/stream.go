package core

import (
	"context"
	"iter"

	"probgraph/internal/graph"
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
// moment its verification completes. The evaluation is QueryCtx's own,
// run with a hook that passes each admitted match on: same plan, same
// candidate loop, same failure rule, same Stats observed.
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
//     cancelled — err is the error QueryCtx returns for the same call
//     (ctx.Err() on cancellation, checked per shard and per candidate);
//   - silently, when the consumer breaks out of the loop early — the
//     evaluation is cancelled and joined before the iterator returns, so
//     an abandoned stream leaks no goroutines.
//
// Matches that were already yielded are never retracted; a consumer that
// only needs the first few answers can break as soon as it has them.
func (v *View) QueryStream(ctx context.Context, q *graph.Graph, opt QueryOptions) iter.Seq2[Match, error] {
	return func(yield func(Match, error) bool) {
		// The query runs on one producer goroutine, and its hook hands each
		// match over an unbuffered channel, so the consumer's yield loop is
		// the other side of the rendezvous and a slow consumer
		// back-pressures evaluation. inner is cancelled on early break; the
		// hook selects against it, so no worker blocks on a departed
		// consumer.
		inner, cancel := context.WithCancel(ctx)
		defer cancel()
		out := make(chan Match)
		finished := make(chan struct{})
		var err error
		go func() {
			defer close(finished)
			_, err = v.query(inner, q, opt, func(m Match) {
				select {
				case out <- m:
				case <-inner.Done():
				}
			})
		}()
		for {
			select {
			case m := <-out:
				if !yield(m, nil) {
					cancel()
					<-finished
					return
				}
			case <-finished:
				// out is unbuffered, so no match is left in flight. A hook
				// call that gave up on a cancelled context dropped its
				// match, and only ctx can have cancelled it here.
				if err == nil {
					err = ctx.Err()
				}
				if err != nil {
					yield(Match{}, err)
				}
				return
			}
		}
	}
}
