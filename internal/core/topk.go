package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

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

// topkRule is the serial top-k rule, and the one place it is written. A
// walk steps it over a schedule in walk order (walkOrder): before every
// entry it asks stops, and while that is false it commits the entry's
// value. The ranking is SSP descending, Graph ascending, at most k kept.
//
// The stop is taken on a tie: an entry whose Upper equals the k-th best SSP
// is not walked. So an entry left unwalked whose SSP equals the k-th value
// is not listed even when its Graph is smaller — though the ranking's own
// order would put it above the k-th item. The ranking is the walk's, not
// the k first (SSP descending, Graph ascending) keys of the whole schedule.
type topkRule struct {
	k   int
	top []TopKItem
}

// newTopKRule starts the rule for k ≥ 1 over a schedule of n entries.
func newTopKRule(k, n int) topkRule {
	// One slot over what is kept, so insertTopK never reallocates.
	return topkRule{k: k, top: make([]TopKItem, 0, min(k, n)+1)}
}

// stops reports whether the walk ends before e: the ranking holds k items
// and e's Upper cannot beat the k-th best SSP.
func (r *topkRule) stops(e TopKBound) bool {
	return len(r.top) >= r.k && e.Upper <= r.top[r.k-1].SSP
}

// commit folds e's value into the ranking when it is positive.
func (r *topkRule) commit(e TopKBound, ssp float64) {
	if ssp > 0 {
		r.top = insertTopK(r.top, TopKItem{Graph: e.Graph, SSP: ssp}, r.k)
	}
}

// walkOrder is the order every top-k walk takes its schedule in: Upper
// descending, Graph ascending.
func walkOrder(a, b TopKBound) int {
	return cmp.Or(cmp.Compare(b.Upper, a.Upper), cmp.Compare(a.Graph, b.Graph))
}

// ReplayWalks is a fleet's top-k: it merges the walks range partitions took
// (QueryTopKWalk, translated to global ids) in walk order and steps the
// rule over the merged list, every value already in hand. QueryTopKWalk
// explains why that is the full database's Top, bitwise. It fails, with bad
// the index of the offending walk, when a graph id is listed twice — bad is
// the walk of the second listing — or when the replay reaches a walk's Stop
// entry: that walk stopped short of its own rule. k is at least 1.
func ReplayWalks(walks []*TopKWalk, k int) (top []TopKItem, bad int, err error) {
	type entry struct {
		TopKStep
		walk int
		stop bool
	}
	var merged []entry
	for wi, w := range walks {
		for _, s := range w.Steps {
			merged = append(merged, entry{s, wi, false})
		}
		if w.Stop != nil {
			merged = append(merged, entry{TopKStep{TopKBound: *w.Stop}, wi, true})
		}
	}
	listed := make(map[int]bool, len(merged))
	for _, e := range merged {
		if listed[e.Graph] {
			return nil, e.walk, fmt.Errorf("core: graph %d listed twice", e.Graph)
		}
		listed[e.Graph] = true
	}
	slices.SortFunc(merged, func(a, b entry) int { return walkOrder(a.TopKBound, b.TopKBound) })
	r := newTopKRule(k, len(merged))
	for _, e := range merged {
		if r.stops(e.TopKBound) {
			break
		}
		if e.stop {
			return nil, e.walk, fmt.Errorf("core: the replay reaches walk %d's stop entry, graph %d", e.walk, e.Graph)
		}
		r.commit(e.TopKBound, e.SSP)
	}
	return r.top, 0, nil
}

// TopKStep is one entry a top-k walk committed: the schedule entry and the
// SSP it was valued at.
type TopKStep struct {
	TopKBound
	SSP float64
}

// TopKWalk is a ranked query's outcome together with the walk behind it:
// the entries the rule committed, in schedule order with their values,
// and the entry it stopped at — nil when it walked the whole schedule.
// Top is what QueryTopKCtx returns.
type TopKWalk struct {
	Top   []TopKItem
	Steps []TopKStep
	Stop  *TopKBound
}

// QueryTopKCtx returns the k database graphs with the highest SSP for q at
// distance δ, ranked descending: QueryTopKWalk's Top.
func (v *View) QueryTopKCtx(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) ([]TopKItem, error) {
	w, err := v.QueryTopKWalk(ctx, q, k, opt)
	if err != nil {
		return nil, err
	}
	return w.Top, nil
}

// QueryTopKWalk is the ranked query. It extends the paper's threshold
// queries the way its bounds machinery invites: candidates are verified in
// decreasing order of their upper bound (TopKBound.Upper), and verification
// stops as soon as the next candidate's bound cannot beat the current k-th
// best SSP (topkRule). Every value comes from the un-thresholded ladder
// of VerifySSP: exact where the DNF's elimination is cheap, the full
// SMP estimate otherwise. QueryOptions.Epsilon does not affect the ranking
// (it is still validated). The degenerate query (δ ≥ |E(q)|) commits the
// first k live slots at SSP 1 without verifying them.
//
// On a range partition the walk is what a coordinator merges: at every
// point of the schedule a partition's k-th best SSP is at most the full
// database's, so the partition's walk commits every entry of its range the
// full walk commits, and the full walk stops no later than the partition's
// stop entry. Replaying the rule over the partitions' walks merged in walk
// order (ReplayWalks) therefore needs no value it does not hold and returns
// this Top, bitwise.
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
func (v *View) QueryTopKWalk(ctx context.Context, q *graph.Graph, k int, opt QueryOptions) (*TopKWalk, error) {
	p, sched, dnfs, err := v.topkSchedule(ctx, q, k, opt)
	if err != nil {
		return nil, err
	}
	w := &TopKWalk{}
	if p.degenerate {
		w.Top, w.Steps = make([]TopKItem, len(sched)), make([]TopKStep, len(sched))
		for i, c := range sched {
			w.Top[i], w.Steps[i] = TopKItem{Graph: c.Graph, SSP: 1}, TopKStep{c, 1}
		}
		return w, nil
	}
	if len(sched) == 0 {
		return w, nil
	}
	workers := pool.Normalize(p.opt.Concurrency, len(sched))
	vals := make([]float64, len(sched))
	var (
		r         topkRule
		committed int
	)
	err = obs.Stage(ctx, "topk_commit", func(ctx context.Context) (int64, error) {
		r = newTopKRule(k, len(sched))
		var (
			valued int          // sched[:valued] has been valued
			failAt = len(sched) // the first entry that failed, with werr
			werr   error
		)
		for i, c := range sched {
			if r.stops(c) {
				break
			}
			if i == valued {
				valued = min(i+workers, len(sched))
				werr = pool.ForEachIndexCtx(ctx, valued-i, workers, func(j int) error {
					d, err := decide(dnfs[i+j], p.opt, 0)
					if err != nil {
						vals[i+j] = math.NaN()
						return fmt.Errorf("core: verifying graph %d: %w", sched[i+j].Graph, err)
					}
					vals[i+j] = d.ssp
					return nil
				})
				if werr != nil {
					// The loop's error is its lowest failing entry's, and
					// every entry below that one ran: the first NaN. A dead
					// context ends the walk here.
					failAt = i
					if ctx.Err() == nil {
						failAt += slices.IndexFunc(vals[i:valued], math.IsNaN)
					}
				}
			}
			if i == failAt {
				return int64(committed), werr
			}
			r.commit(c, vals[i])
			committed++
		}
		return int64(committed), nil
	})
	if err != nil {
		return nil, err
	}
	w.Top, w.Steps = r.top, make([]TopKStep, committed)
	for i := range w.Steps {
		w.Steps[i] = TopKStep{sched[i], vals[i]}
	}
	if committed < len(sched) {
		w.Stop = &sched[committed]
	}
	return w, nil
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
// bound on the true SSP. The schedule is sorted Upper descending, slot
// ascending — the order the serial top-k algorithm verifies in.
type TopKBound struct {
	Graph int     // database slot index
	Upper float64 // min(Usim, V, 1)
}

// topkSchedule is the ranked forms' shared start: the plan, then the
// verification schedule over its candidates — each candidate's upper bound
// (seeded from its global id, so partitions agree bitwise with the full
// database), sorted by the serial verification order — and beside it the
// prepared DNF each bound came from. Each DNF is prepared from the clauses
// the plan's confirmation enumerated, so no embedding is searched for
// after struct_filter. A degenerate plan schedules its first k live slots
// and no DNFs; their SSP is 1 without verification.
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
	// Each candidate's bound is the smallest of Usim (drawn from the
	// candidate's own candSeed-derived rng), 1 and the bound of its prepared
	// DNF, so the schedule is the same at any worker count.
	type scheduled struct {
		TopKBound
		dnf *verify.DNF
	}
	cands := make([]scheduled, len(p.scq))
	err = obs.Stage(ctx, "bounds", func(ctx context.Context) (int64, error) {
		n := int64(len(p.scq))
		pr, err := v.newPruner(ctx, q, p.deleted, p.opt, false)
		if err != nil {
			return n, err
		}
		pr.partial = p.partial
		return n, pool.ForEachIndexCtx(ctx, len(p.scq), pool.Normalize(p.opt.Concurrency, len(p.scq)), func(i int) error {
			gi := p.scq[i]
			usim, sc := pr.usim(gi)
			putScratch(sc)
			d, _, err := v.prepareClauses(p.sets[i], gi, p.opt)
			if err != nil {
				return fmt.Errorf("core: verifying graph %d: %w", gi, err)
			}
			cands[i] = scheduled{TopKBound{Graph: gi, Upper: min(usim, 1, d.Bound())}, d}
			return nil
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// Slot ascending breaks upper-bound ties. On a partition, slots are in
	// global-id order, so merging shard schedules by (Upper desc, global
	// id asc) reproduces exactly this order over the union.
	slices.SortFunc(cands, func(a, b scheduled) int { return walkOrder(a.TopKBound, b.TopKBound) })
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
// Its one caller outside tests is the benchmark ledger (bench/layers.go),
// which times top-k's two halves apart with it and VerifySSPBatch; a
// fleet merges QueryTopKWalk's walks instead.
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
// SSP (its elimination within the budget) or its full SMP estimate, which is
// what QueryTopKCtx ranks by. Each slot's DNF comes from q and opt.Delta
// alone (see prepareDNF), and its value seeds from its global id alone,
// independent of batching, order, or worker count. Its one caller outside
// tests is the benchmark ledger (bench/layers.go), beside QueryTopKBounds.
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
	all := make([]int, len(qs))
	for i := range all {
		all[i] = i
	}
	return v.QueryBatchMembersCtx(ctx, qs, all, opt)
}

// QueryBatchMembersCtx runs only the listed members of the batch qs
// (ascending indices), each exactly as QueryBatchCtx runs it — member i
// with seed BatchSeed(opt.Seed, i) — with the pool split over the listed
// members alone, so a single member gets every worker. results[i] is set
// for each listed i and nil for the others: a caller that already holds
// some members' results (a result cache) evaluates only the rest.
func (v *View) QueryBatchMembersCtx(ctx context.Context, qs []*graph.Graph, members []int, opt QueryOptions) ([]*Result, error) {
	if len(members) == 0 {
		return nil, nil
	}
	workers := pool.Normalize(opt.Concurrency, len(members))
	inner := 1
	if w := pool.Normalize(opt.Concurrency, len(members)*v.Len()); w > workers {
		inner = w / workers
	}
	results := make([]*Result, len(qs))
	// A member that died of the shared context makes the loop report plain
	// ctx.Err(): the batch was cancelled, not that query failing.
	err := pool.ForEachIndexCtx(ctx, len(members), workers, func(j int) error {
		i := members[j]
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
