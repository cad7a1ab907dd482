package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/pool"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

// TopKItem is one ranked answer.
type TopKItem struct {
	Graph int     // database index
	SSP   float64 // estimated subgraph similarity probability
}

// QueryTopKCtx returns the k database graphs with the highest SSP for q at
// distance δ, ranked descending. It extends the paper's threshold queries
// the way its bounds machinery invites: candidates are verified in
// decreasing order of their upper bound (TopKBound.Upper), and verification
// stops as soon as the next candidate's bound cannot beat the current k-th
// best SSP. Every value comes from the un-thresholded ladder of VerifySSP:
// exact for a DNF of at most exactCrossover clauses, the full SMP estimate
// otherwise.
// QueryOptions.Epsilon does not affect the ranking (it is still validated).
//
// With opt.Concurrency > 1 both the bound computation and the verification
// schedule fan out over the worker pool. Workers verify candidates
// speculatively in schedule order while a commit loop folds finished
// results into the top-k sequentially, applying the exact serial
// termination rule — so the returned ranking is bitwise-identical to a
// serial run at any worker count. Speculation past the serial cutoff is
// bounded and its results are discarded, costing only wasted work, never
// a changed answer.
//
// Cancellation is checked at every stage — structural scan (shard
// granularity), bound computation and verification (candidate granularity)
// — and wakes workers blocked on the speculation window, so a cancelled
// call returns (nil, ctx.Err()) promptly without leaking goroutines.
func (v *View) QueryTopKCtx(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) ([]TopKItem, error) {
	p, cands, err := v.topkSchedule(ctx, q, k, opt)
	if err != nil {
		return nil, err
	}
	if p.degenerate {
		out := make([]TopKItem, len(cands))
		for i, c := range cands {
			out[i] = TopKItem{Graph: c.Graph, SSP: 1}
		}
		return out, nil
	}
	if len(cands) == 0 {
		return nil, nil
	}
	opt = p.opt
	workers := pool.Normalize(opt.Concurrency, len(cands))

	// Verification with bound-based early termination. Workers verify
	// candidates speculatively in schedule order; a sequential commit
	// loop replays the serial algorithm over finished results — stop the
	// moment the next candidate's upper bound cannot beat the k-th best
	// SSP, otherwise fold its SSP in. Per-graph SSPs are deterministic
	// (candSeed), so the committed prefix — and hence the result — is
	// exactly the serial run's. A lookahead window bounds how far workers
	// may speculate past the last committed result; results beyond the
	// serial cutoff are discarded.
	n := len(cands)
	window := 2 * workers
	if window < k {
		window = k
	}
	var (
		mu        sync.Mutex
		next      int  // next speculative index to hand out
		committed int  // results folded into top, in schedule order
		stopped   bool // serial termination rule fired
		firstErr  error
		ctxErr    error // set by the cancellation watcher, ends the run
		done      = make([]bool, n)
		ssps      = make([]float64, n)
		errs      = make([]error, n)
	)
	// top is pre-sized to its maximum (k kept + 1 overflow slot before
	// truncation), so the commit loop never reallocates it.
	capTop := k
	if capTop > n {
		capTop = n
	}
	top := make([]TopKItem, 0, capTop+1)
	cond := sync.NewCond(&mu)
	// The workers block on cond (speculation window), not on a channel, so
	// ctx cancellation must be translated into a broadcast: a watcher
	// goroutine marks ctxErr and wakes everyone. stopWatch reclaims the
	// watcher on normal completion.
	if cdone := ctx.Done(); cdone != nil {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-cdone:
				mu.Lock()
				ctxErr = ctx.Err()
				cond.Broadcast()
				mu.Unlock()
			case <-stopWatch:
			}
		}()
	}
	kthBest := func() float64 {
		if len(top) < k {
			return 0
		}
		return top[len(top)-1].SSP
	}
	// commit advances over finished results exactly as the serial loop
	// would. The termination rule needs only the committed prefix — not
	// candidate `committed`'s own verification — so it is checked before
	// waiting on done[committed]; the cutoff then fires without paying
	// for the first hopeless candidate. Caller holds mu.
	commit := func() {
		for !stopped && firstErr == nil && ctxErr == nil && committed < n {
			c := cands[committed]
			if len(top) >= k && c.Upper <= kthBest() {
				stopped = true
				break
			}
			if !done[committed] {
				break
			}
			if errs[committed] != nil {
				firstErr = fmt.Errorf("core: verifying graph %d: %w", c.Graph, errs[committed])
				break
			}
			if ssp := ssps[committed]; ssp > 0 {
				top = insertTopK(top, TopKItem{Graph: c.Graph, SSP: ssp}, k)
			}
			committed++
		}
	}
	verifyWorker := func() {
		for {
			mu.Lock()
			for !stopped && firstErr == nil && ctxErr == nil && next < n && next >= committed+window {
				cond.Wait()
			}
			if stopped || firstErr != nil || ctxErr != nil || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()

			d, err := decide(cands[i].dnf, opt, 0)

			mu.Lock()
			ssps[i], errs[i], done[i] = d.ssp, err, true
			commit()
			cond.Broadcast()
			mu.Unlock()
		}
	}
	sp := obs.SpanFrom(ctx).Child("topk_commit")
	if workers <= 1 {
		verifyWorker()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				verifyWorker()
			}()
		}
		wg.Wait()
	}
	// The watcher may still be writing ctxErr; read the terminal state
	// under the lock. A cancelled run reports ctx.Err() even when the
	// serial cutoff raced it to completion — "cancelled means cancelled"
	// keeps the caller-facing contract one-dimensional.
	mu.Lock()
	cerr, ferr, ranking := ctxErr, firstErr, top
	nCommitted := committed
	mu.Unlock()
	sp.EndCount(int64(nCommitted))
	if cerr != nil {
		return nil, cerr
	}
	if ferr != nil {
		return nil, ferr
	}
	return ranking, nil
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

// scheduled is a schedule entry with the prepared DNF its bound came from,
// so the in-process top-k verifies without enumerating embeddings again
// (nil on a degenerate plan, which verifies nothing).
type scheduled struct {
	TopKBound
	dnf *verify.DNF
}

// topkSchedule is the ranked forms' shared start: the plan, then the
// verification schedule over its candidates — each candidate's upper bound
// (seeded from its global id, so partitions agree bitwise with the full
// database), sorted by the serial verification order. A degenerate plan
// schedules its first k live slots; their SSP is 1 without verification.
func (v *View) topkSchedule(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) (*plan, []scheduled, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("core: k must be positive")
	}
	p, err := v.newPlan(ctx, q, opt, true)
	if err != nil {
		return nil, nil, err
	}
	if p.degenerate {
		cands := make([]scheduled, min(k, len(p.scq)))
		for i := range cands {
			cands[i].TopKBound = TopKBound{Graph: p.scq[i], Upper: 1}
		}
		return p, cands, nil
	}
	if len(p.scq) == 0 {
		return p, nil, nil
	}
	// Each candidate's bound is the smaller of Usim (when the view has a
	// PMI; drawn from the candidate's own candSeed-derived rng) and the
	// bound of its prepared DNF, so the schedule is the same at any worker
	// count.
	cands := make([]scheduled, len(p.scq))
	errs := make([]error, len(p.scq))
	sp := obs.SpanFrom(ctx).Child("bounds")
	var pr *pruner
	if v.PMI != nil {
		pr, err = v.newPruner(ctx, q, p.u, p.deleted, p.opt)
	}
	if err == nil {
		err = pool.ForEachIndexCtx(ctx, len(p.scq), pool.Normalize(p.opt.Concurrency, len(p.scq)), func(i int) {
			gi := p.scq[i]
			ub := 1.0
			if pr != nil {
				sc := getScratch(candSeed(p.opt.Seed^pruneSalt, v.GID(gi)))
				sc.entries = v.PMI.LookupInto(gi, sc.entries[:0])
				ub = min(pr.upperBound(sc.entries, sc), 1)
				putScratch(sc)
			}
			d, err := v.prepareDNF(p.u, gi, p.opt)
			if err != nil {
				errs[i] = err
				return
			}
			cands[i] = scheduled{TopKBound{Graph: gi, Upper: min(ub, d.Bound())}, d}
		})
	}
	sp.EndCount(int64(len(p.scq)))
	if err != nil {
		return nil, nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, nil, fmt.Errorf("core: verifying graph %d: %w", p.scq[i], e)
		}
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
	return p, cands, nil
}

// QueryTopKBounds computes the top-k verification schedule without
// verifying anything: the ranked candidate slots with their upper bounds,
// sorted in serial verification order (Upper descending, slot ascending).
// A distributed coordinator calls this on every shard, merges the
// schedules by (Upper, global id), and replays the serial early-
// termination rule over the union — fetching SSPs via VerifySSPBatch —
// to reproduce QueryTopKCtx bitwise.
//
// The degenerate return (δ ≥ |E(q)|, where every live graph matches with
// SSP 1) lists the first k live slots with Upper 1 and degenerate=true;
// no verification is needed for them.
func (v *View) QueryTopKBounds(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) (bounds []TopKBound, degenerate bool, err error) {
	p, cands, err := v.topkSchedule(ctx, q, k, opt)
	if err != nil {
		return nil, false, err
	}
	for _, c := range cands {
		bounds = append(bounds, c.TopKBound)
	}
	return bounds, p.degenerate, nil
}

// VerifySSPBatch is the ranking form of VerifySSP: it values q against each
// of the given live slots on the worker pool and returns the values in
// input order; a slot that is out of range or tombstoned fails the call
// with ErrNoSuchGraph. opt.Epsilon is ignored — no candidate is rejected on
// a bound and the sampler never stops early, so every slot gets its exact
// SSP (at most exactCrossover clauses) or its full SMP estimate, which is
// what QueryTopKCtx ranks by. The relaxed query set is derived internally
// (as QueryCtx and QueryTopKCtx derive it), and each slot's value seeds from
// its global id alone, independent of batching, order, or worker count.
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
	u := relax.Relaxed(q, opt.Delta, opt.MaxRelaxed)
	out := make([]float64, len(gis))
	errs := make([]error, len(gis))
	workers := pool.Normalize(opt.Concurrency, len(gis))
	err := pool.ForEachIndexCtx(ctx, len(gis), workers, func(i int) {
		var d decision
		d, errs[i] = v.verifySSP(u, gis[i], opt, 0)
		out[i] = d.ssp
	})
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("core: verifying graph %d: %w", gis[i], e)
		}
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
	errs := make([]error, len(qs))
	var abort atomic.Bool // first failed query stops remaining work
	err := pool.ForEachIndexCtx(ctx, len(qs), workers, func(i int) {
		if abort.Load() {
			return
		}
		qo := opt
		qo.Seed = BatchSeed(opt.Seed, i)
		qo.Concurrency = inner
		results[i], errs[i] = v.query(ctx, qs[i], qo)
		if errs[i] != nil {
			abort.Store(true)
		}
	})
	if err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			// A member that died of the shared context reports plain
			// ctx.Err(): the batch was cancelled, not that query failing.
			if err == ctx.Err() {
				return nil, err
			}
			return nil, fmt.Errorf("core: query %d: %w", i, err)
		}
	}
	return results, nil
}
