package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/pool"
	"probgraph/internal/verify"
)

// TopKItem is one ranked answer.
type TopKItem struct {
	Graph int     // database index
	SSP   float64 // estimated subgraph similarity probability
}

// ReplayTopK is the serial top-k rule, and the one place it is written:
// walk sched — sorted Upper descending, Graph ascending — and before every
// entry stop if the ranking holds k items and the entry's Upper cannot beat
// the k-th best SSP; otherwise fold the entry's SSP in when it is positive
// (SSP descending, Graph ascending, at most k kept). It returns the ranking
// and how many entries it committed, that is, walked past without stopping.
// k and window are at least 1.
//
// Values come from verify, which is asked for the values of sched[lo:hi]
// when the walk reaches an entry it holds no value for: lo is that entry,
// hi − lo ≤ window, no index is asked for twice and at most window − 1 past
// the stop. A value depends on its entry alone, so a window buys batching —
// pool workers in-process, round trips in a fleet — and values past the
// stop are dropped: the outcome at any window is the outcome at window 1.
// Failures included: verify may return the values before its first failing
// entry together with that entry's error, and the error counts only if the
// walk reaches the entry. Then, or when ctx is done before a call,
// ReplayTopK returns (nil, committed, err), err unchanged.
func ReplayTopK(ctx context.Context, sched []TopKBound, k, window int,
	verify func(ctx context.Context, lo, hi int) ([]float64, error)) (top []TopKItem, committed int, err error) {
	// One slot over what is kept, so insertTopK never reallocates.
	top = make([]TopKItem, 0, min(k, len(sched))+1)
	var (
		vals []float64 // vals[j] is the value of sched[lo+j]
		lo   int
		verr error // why vals is shorter than the window asked for
	)
	for i, c := range sched {
		if len(top) >= k && c.Upper <= top[k-1].SSP {
			break
		}
		if i == lo+len(vals) {
			if verr == nil {
				verr = ctx.Err()
			}
			if verr != nil {
				return nil, i, verr
			}
			lo = i
			if vals, verr = verify(ctx, lo, min(lo+window, len(sched))); verr != nil && len(vals) == 0 {
				return nil, i, verr
			}
		}
		if ssp := vals[i-lo]; ssp > 0 {
			top = insertTopK(top, TopKItem{Graph: c.Graph, SSP: ssp}, k)
		}
		committed = i + 1
	}
	return top, committed, nil
}

// QueryTopKCtx returns the k database graphs with the highest SSP for q at
// distance δ, ranked descending. It extends the paper's threshold queries
// the way its bounds machinery invites: candidates are verified in
// decreasing order of their upper bound (TopKBound.Upper), and verification
// stops as soon as the next candidate's bound cannot beat the current k-th
// best SSP (ReplayTopK). Every value comes from the un-thresholded ladder
// of VerifySSP: exact for a DNF of at most exactCrossover clauses, the full
// SMP estimate otherwise.
// QueryOptions.Epsilon does not affect the ranking (it is still validated).
//
// With opt.Concurrency > 1 the bound computation fans out over the worker
// pool and the rule's window is the worker count: w candidates are valued
// at once, then committed one by one, so at most w − 1 values are computed
// past the stop and the ranking is bitwise the serial run's at any worker
// count. (Every DNF was prepared in the bounds stage; a value costs µs to
// a fraction of a millisecond, so a wider window would spend more past the
// stop than it saves before it.)
//
// Cancellation is checked at every stage — structural scan (shard
// granularity), bound computation and verification (candidate granularity):
// a cancelled call returns (nil, ctx.Err()) with every pool goroutine joined.
func (v *View) QueryTopKCtx(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) ([]TopKItem, error) {
	p, sched, dnfs, err := v.topkSchedule(ctx, q, k, opt)
	if err != nil {
		return nil, err
	}
	if p.degenerate {
		out := make([]TopKItem, len(sched))
		for i, c := range sched {
			out[i] = TopKItem{Graph: c.Graph, SSP: 1}
		}
		return out, nil
	}
	if len(sched) == 0 {
		return nil, nil
	}
	workers := pool.Normalize(p.opt.Concurrency, len(sched))
	vals := make([]float64, workers)
	sp := obs.SpanFrom(ctx).Child("topk_commit")
	top, committed, err := ReplayTopK(ctx, sched, k, workers, func(ctx context.Context, lo, hi int) ([]float64, error) {
		// A failed entry's value is NaN. The loop's error is its lowest
		// failing entry's, and every entry below that one ran, so the
		// window's values end at the first NaN.
		err := pool.ForEachIndexCtx(ctx, hi-lo, workers, func(j int) error {
			d, err := decide(dnfs[lo+j], p.opt, 0)
			if err != nil {
				vals[j] = math.NaN()
				return fmt.Errorf("core: verifying graph %d: %w", sched[lo+j].Graph, err)
			}
			vals[j] = d.ssp
			return nil
		})
		switch {
		case err == nil:
			return vals[:hi-lo], nil
		case ctx.Err() != nil:
			return nil, err
		}
		return vals[:slices.IndexFunc(vals[:hi-lo], math.IsNaN)], err
	})
	sp.EndCount(int64(committed))
	return top, err
}

// insertTopK folds item into the ranking by sorted insertion (SSP
// descending, graph ascending), keeping at most k items. Keys are unique —
// each graph commits once — so this yields exactly the order a full
// re-sort would, and with cap(top) > len(top) it never allocates.
//
//pgvet:noalloc
func insertTopK(top []TopKItem, item TopKItem, k int) []TopKItem {
	pos := len(top)
	for pos > 0 && (top[pos-1].SSP < item.SSP ||
		(top[pos-1].SSP == item.SSP && top[pos-1].Graph > item.Graph)) {
		pos--
	}
	top = append(top, TopKItem{})
	copy(top[pos+1:], top[pos:])
	top[pos] = item
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// TopKBound is one entry of the top-k verification schedule: a structural
// candidate slot and the bound it is scheduled by, min(Usim, V, 1). V is the
// bound of the candidate's own prepared DNF (Σ Pr(Bfi), see VerifySSP):
// VerifySSPBatch never returns more, compared bitwise. Usim is the PMI's
// bound on the true SSP, absent when the view has no PMI. The schedule is
// sorted Upper descending, slot ascending — the order the serial top-k
// algorithm verifies in.
type TopKBound struct {
	Graph int     // database slot index
	Upper float64 // min(Usim, V, 1)
}

// topkSchedule is the ranked forms' shared start: the plan, then the
// verification schedule over its candidates — each candidate's upper bound
// (seeded from its global id, so partitions agree bitwise with the full
// database), sorted by the serial verification order — and beside it the
// prepared DNF each bound came from, so the in-process top-k verifies
// without enumerating embeddings again. A degenerate plan schedules its
// first k live slots and no DNFs; their SSP is 1 without verification.
func (v *View) topkSchedule(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) (*plan, []TopKBound, []*verify.DNF, error) {
	if k <= 0 {
		return nil, nil, nil, fmt.Errorf("core: k must be positive")
	}
	p, err := v.newPlan(ctx, q, opt, true)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(p.scq) == 0 {
		return p, nil, nil, nil
	}
	if p.degenerate {
		sched := make([]TopKBound, min(k, len(p.scq)))
		for i := range sched {
			sched[i] = TopKBound{Graph: p.scq[i], Upper: 1}
		}
		return p, sched, nil, nil
	}
	// Each candidate's bound is the smaller of Usim (when the view has a
	// PMI; drawn from the candidate's own candSeed-derived rng) and the
	// bound of its prepared DNF, so the schedule is the same at any worker
	// count.
	type scheduled struct {
		TopKBound
		dnf *verify.DNF
	}
	cands := make([]scheduled, len(p.scq))
	sp := obs.SpanFrom(ctx).Child("bounds")
	var pr *pruner
	if v.PMI != nil {
		pr, err = v.newPruner(ctx, q, p.deleted, p.opt, false)
	}
	if err == nil {
		err = pool.ForEachIndexCtx(ctx, len(p.scq), pool.Normalize(p.opt.Concurrency, len(p.scq)), func(i int) error {
			gi := p.scq[i]
			ub := 1.0
			if pr != nil {
				usim, sc := pr.usim(gi)
				putScratch(sc)
				ub = min(usim, 1)
			}
			d, err := v.prepareDNF(q, gi, p.opt)
			if err != nil {
				return fmt.Errorf("core: verifying graph %d: %w", gi, err)
			}
			cands[i] = scheduled{TopKBound{Graph: gi, Upper: min(ub, d.Bound())}, d}
			return nil
		})
	}
	sp.EndCount(int64(len(p.scq)))
	if err != nil {
		return nil, nil, nil, err
	}
	// Slot ascending breaks upper-bound ties. On a partition, slots are in
	// global-id order, so merging shard schedules by (Upper desc, global
	// id asc) reproduces exactly this order over the union.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Upper != cands[j].Upper {
			return cands[i].Upper > cands[j].Upper
		}
		return cands[i].Graph < cands[j].Graph
	})
	sched := make([]TopKBound, len(cands))
	dnfs := make([]*verify.DNF, len(cands))
	for i, c := range cands {
		sched[i], dnfs[i] = c.TopKBound, c.dnf
	}
	return p, sched, dnfs, nil
}

// QueryTopKBounds computes the top-k verification schedule without
// verifying anything: the ranked candidate slots with their upper bounds,
// sorted in serial verification order (Upper descending, slot ascending).
// A distributed coordinator calls this on every shard, merges the
// schedules by (Upper, global id), and runs ReplayTopK over the union —
// fetching SSPs via VerifySSPBatch — to reproduce QueryTopKCtx bitwise.
//
// The degenerate return (δ ≥ |E(q)|, where every live graph matches with
// SSP 1) lists the first k live slots with Upper 1 and degenerate=true;
// no verification is needed for them.
func (v *View) QueryTopKBounds(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) (bounds []TopKBound, degenerate bool, err error) {
	p, bounds, _, err := v.topkSchedule(ctx, q, k, opt)
	if err != nil {
		return nil, false, err
	}
	return bounds, p.degenerate, nil
}

// VerifySSPBatch is the ranking form of VerifySSP: it values q against each
// of the given live slots on the worker pool and returns the values in
// input order; a slot that is out of range or tombstoned fails the call
// with ErrNoSuchGraph. opt.Epsilon is ignored — no candidate is rejected on
// a bound and the sampler never stops early, so every slot gets its exact
// SSP (at most exactCrossover clauses) or its full SMP estimate, which is
// what QueryTopKCtx ranks by. Each slot's DNF comes from q and opt.Delta
// alone (see prepareDNF), and its value seeds from its global id alone,
// independent of batching, order, or worker count.
func (v *View) VerifySSPBatch(ctx context.Context, q *graph.Graph, gis []int, opt QueryOptions) ([]float64, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	for _, gi := range gis {
		if err := v.checkLive(gi, "verifying"); err != nil {
			return nil, err
		}
	}
	if len(gis) == 0 {
		return nil, nil
	}
	out := make([]float64, len(gis))
	err := pool.ForEachIndexCtx(ctx, len(gis), pool.Normalize(opt.Concurrency, len(gis)), func(i int) error {
		d, err := v.verifySSP(q, gis[i], opt, 0)
		if err != nil {
			return fmt.Errorf("core: verifying graph %d: %w", gis[i], err)
		}
		out[i] = d.ssp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueryBatchCtx answers many queries over one bounded worker pool of
// opt.Concurrency goroutines (0 or 1 serial, negative GOMAXPROCS) and
// returns their results in input order. Every member runs against this one
// view — a batch is one consistent read of the database. Query i runs with
// the derived seed BatchSeed(opt.Seed, i), so its result is
// bitwise-identical to calling QueryCtx with that seed directly — batching
// never changes answers.
//
// The pool is spread across queries first; leftover capacity (when the
// pool is larger than the batch) parallelizes candidates inside each
// query.
//
// The context is shared by every member query — cancellation stops the
// whole batch (member queries check it per pipeline stage and per
// candidate) and the call returns (nil, ctx.Err()); there are no partial
// batch results.
func (v *View) QueryBatchCtx(ctx context.Context, qs []*graph.Graph, opt QueryOptions) ([]*Result, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	workers := pool.Normalize(opt.Concurrency, len(qs))
	inner := 1
	if w := pool.Normalize(opt.Concurrency, len(qs)*v.Len()); w > workers {
		inner = w / workers
	}
	results := make([]*Result, len(qs))
	// A member that died of the shared context makes the loop report plain
	// ctx.Err(): the batch was cancelled, not that query failing.
	err := pool.ForEachIndexCtx(ctx, len(qs), workers, func(i int) error {
		qo := opt
		qo.Seed = BatchSeed(opt.Seed, i)
		qo.Concurrency = inner
		var err error
		if results[i], err = v.query(ctx, qs[i], qo, nil); err != nil {
			return fmt.Errorf("core: query %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
