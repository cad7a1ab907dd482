package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"probgraph/internal/cover"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/obs"
	"probgraph/internal/pool"
	"probgraph/internal/prob"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

// VerifierKind selects the verification algorithm.
type VerifierKind int

const (
	// VerifierSMP is the paper's Algorithm 5 sampler (default).
	VerifierSMP VerifierKind = iota
	// VerifierExact is the Equation 21 inclusion–exclusion baseline.
	VerifierExact
	// VerifierNone stops after pruning: candidates count as answers. Used
	// to measure pruning quality in the Figure 10–12 experiments.
	VerifierNone
)

// QueryOptions configures one T-PS query.
type QueryOptions struct {
	// Epsilon is the probability threshold ε ∈ (0, 1].
	Epsilon float64
	// Delta is the subgraph distance threshold δ ≥ 0.
	Delta int
	// SkipProbPruning bypasses the PMI phase (Structure-only pipeline).
	SkipProbPruning bool
	// OptBounds selects OPT-SSPBound (Usim from the greedy set cover, Lsim
	// the best contained feature); false selects the plain SSPBound that
	// picks one arbitrary feature pair per relaxed query (paper §6's
	// SSPBound baseline).
	OptBounds bool
	// Verifier selects SMP (default), Exact, or none.
	Verifier VerifierKind
	// Verify tunes the SMP estimator / caps Exact's clause count. Queries
	// never read Verify.Seed: each candidate's sampler is seeded from Seed
	// and the candidate's global id (candSeed).
	Verify verify.Options
	// MaxRelaxed caps the relaxed queries the PMI bounds read (0 = up to
	// relax.DefaultMaxSize). A U cut short, by the cap or by the walk's
	// budget (relax.Enumerate), loosens Usim to the trivial 1, so Pruning 1
	// never fires and top-k's upper bounds are the DNF's; Lsim still reads
	// the members listed. Structural confirmation and verification search q
	// with a budget of δ and always read all of U.
	MaxRelaxed int
	// Seed drives the randomized pieces (plain SSPBound's pair choice,
	// SMP) deterministically; OPT-SSPBound itself draws nothing.
	Seed int64
	// Concurrency bounds the worker pool evaluating candidate graphs
	// (bound combination and verification): 0 or 1 run serially, a
	// negative value selects GOMAXPROCS. The result set, SSP estimates,
	// and counters are identical for every setting — all per-candidate
	// randomness is seeded purely from Seed and the candidate's graph
	// index, never from scheduling order. In QueryBatchCtx the same knob
	// bounds the pool spread across the batch's queries.
	Concurrency int
}

// DefaultMaxClausesPerCandidate caps the distinct embedded edge sets
// verification collects per candidate; a cap that binds leaves out
// clauses, so the value becomes a lower bound.
const DefaultMaxClausesPerCandidate = 4096

func (o QueryOptions) withDefaults() QueryOptions {
	if o.Epsilon == 0 {
		o.Epsilon = 0.5
	}
	return o
}

// Validate reports whether the result-affecting knobs are in range:
// ε ∈ (0, 1] (0 is accepted as "unset", defaulting to 0.5; NaN is
// refused), δ ≥ 0, the SMP sample count Verify.N ≥ 0 and the clause cap
// Verify.MaxClauses ≥ 0 (0 = default for both).
// Every query method applies it inside its plan, the ranked ones
// included although ε does not affect a ranking; callers that want to
// reject bad requests before any work, distinguishable from evaluation
// failures (the server maps Validate errors to HTTP 400, everything
// downstream to 422), call it on the untouched options.
func (o QueryOptions) Validate() error {
	if !(o.Epsilon >= 0 && o.Epsilon <= 1) {
		return fmt.Errorf("core: epsilon %v outside (0,1]", o.Epsilon)
	}
	if o.Delta < 0 {
		return fmt.Errorf("core: negative delta %d", o.Delta)
	}
	if o.Verify.N < 0 {
		return fmt.Errorf("core: negative sample count %d", o.Verify.N)
	}
	if o.Verify.MaxClauses < 0 {
		return fmt.Errorf("core: negative clause cap %d", o.Verify.MaxClauses)
	}
	return nil
}

// Stats instruments a query run with the paper's reported metrics.
//
// TimeStruct is the structural stage's wall-clock time: the count scan and
// the confirmations, which in a plan that verifies also enumerate each
// candidate's clauses. TimeProb and TimeVerify sum the per-candidate
// compute spent in each phase; TimeVerify starts from the enumerated
// clauses, so it holds their probabilities and the ladder, not the search.
// At Concurrency <= 1 that equals the phase's wall-clock time; with a
// larger pool the candidates overlap, so the sums measure aggregate CPU
// work and only TimeTotal and TimeStruct remain wall-clock.
type Stats struct {
	StructFilterCandidates int // Grafil-style filter output ("Structure")
	StructConfirmed        int // |SCq|
	PrunedByUpper          int // Pruning 1 discards
	AcceptedByLower        int // Pruning 2 direct accepts
	VerifyCandidates       int // graphs sent to verification
	Answers                int

	// The verification ladder's share of VerifyCandidates (see VerifySSP):
	// candidates rejected because their bound was already below ε, those
	// given an exact value, and the worlds sampled for the rest.
	RejectedByBound int
	DecidedExactly  int
	SamplesDrawn    int

	RelaxedQueries int // |U|

	TimeStruct time.Duration
	TimeProb   time.Duration
	TimeVerify time.Duration
	TimeTotal  time.Duration
}

// observe adds the query's stats to the process-wide pipeline metrics, if
// the caller attached one to ctx (the server does, per request). A context
// without a pipeline makes this free; observing happens once at query
// exit, so hot per-candidate paths never touch it.
func (s Stats) observe(ctx context.Context) {
	p := obs.PipelineFrom(ctx)
	if p == nil {
		return
	}
	p.StructCandidates.Add(int64(s.StructFilterCandidates))
	p.StructConfirmed.Add(int64(s.StructConfirmed))
	p.PrunedUpper.Add(int64(s.PrunedByUpper))
	p.AcceptedLower.Add(int64(s.AcceptedByLower))
	p.Verified.Add(int64(s.VerifyCandidates))
	p.Answers.Add(int64(s.Answers))
	p.Relaxed.Add(int64(s.RelaxedQueries))
	p.VerifyRejectedByBound.Add(int64(s.RejectedByBound))
	p.VerifyDecidedExactly.Add(int64(s.DecidedExactly))
	p.VerifySamples.Add(int64(s.SamplesDrawn))
	p.StageStruct.Observe(s.TimeStruct.Seconds())
	p.StageProb.Observe(s.TimeProb.Seconds())
	p.StageVerify.Observe(s.TimeVerify.Seconds())
}

// Result is a query outcome.
type Result struct {
	// Answers lists matching graph indices ascending.
	Answers []int
	// SSP holds the value verification gave every graph that reached it
	// (direct accepts are not re-estimated and map to -1). An answer
	// carries its exact SSP (a DNF whose elimination is within the
	// ladder's budget, or VerifierExact) or the full SMP estimate. A
	// verified non-answer carries a value below ε that is its exact SSP, the
	// estimate, or an upper bound on the estimate — whichever the ladder of
	// VerifySSP reached first. Under VerifierNone no candidate is verified
	// and the answers have no entry here, though QueryStream's Match
	// carries -1 for them.
	SSP map[int]float64
	// Stats carries phase instrumentation.
	Stats Stats
}

// QueryCtx runs the full T-PS pipeline for query graph q against this
// view. Candidates are evaluated on a pool of opt.Concurrency workers; see
// QueryOptions for the determinism guarantee. Cancellation (or a deadline)
// is checked at every pipeline stage — every 64 sets of the relaxed-set
// walk, before the structural scan, per exact confirmation, per feature
// during pruner construction, and per candidate in the fused prune+verify
// loop. A
// cancelled query returns (nil, ctx.Err()) promptly — one in-flight
// candidate evaluation per worker at most — leaks no goroutines, and
// never returns a partial Result.
func (v *View) QueryCtx(ctx context.Context, q *graph.Graph, opt QueryOptions) (*Result, error) {
	return v.query(ctx, q, opt, nil)
}

// candOutcome is one candidate's decision, written by exactly one worker:
// the verdict of the PMI bounds, the ladder's decision when it reached
// verification, and what the decision means for the query's outputs —
// every output (Answers, Result.SSP, the stream's Match, Stats) is read
// from it.
type candOutcome struct {
	verdict judgement
	decision
	// answer marks an answer; ssp (the decision's) is the value its Match
	// carries, and recorded says Result.SSP holds it. A lower-bound accept
	// carries -1 in both; a VerifierNone answer carries -1 and is not
	// recorded.
	answer   bool
	recorded bool
	err      error
	probT    time.Duration
	verifyT  time.Duration
	ran      bool // set once evaluated without error
}

// tally adds the outcome to the stage times, candidate counters and ladder
// counters of s (an outcome that was not verified carries the zero
// decision, which counts nothing).
func (o candOutcome) tally(s *Stats) {
	s.TimeProb += o.probT
	s.TimeVerify += o.verifyT
	switch o.verdict {
	case judgePrune:
		s.PrunedByUpper++
	case judgeAccept:
		s.AcceptedByLower++
	default:
		s.VerifyCandidates++
		if o.byBound {
			s.RejectedByBound++
		}
		if o.exact {
			s.DecidedExactly++
		}
		s.SamplesDrawn += o.samples
	}
}

// evalCandidate runs the fused probabilistic-pruning + verification stage
// for candidate i of plan p: graph p.scq[i], verified from its clauses
// p.sets[i]. p.pr == nil skips the pruning phase (PMI disabled or
// bypassed). The outcome is a pure function of (v, p, i): all randomness
// is seeded from candSeed, so every caller computes the identical outcome
// regardless of scheduling.
//
//pgvet:noalloc
func (v *View) evalCandidate(p *plan, i int) candOutcome {
	gi := p.scq[i]
	var o candOutcome
	if p.pr != nil {
		t := time.Now()
		o.verdict = p.pr.judge(gi)
		o.probT = time.Since(t)
	}
	switch {
	case o.verdict == judgePrune:
	case o.verdict == judgeAccept:
		o.ssp, o.answer, o.recorded = -1, true, true
	case p.opt.Verifier == VerifierNone:
		o.ssp, o.answer = -1, true
	default:
		t := time.Now()
		d, at, err := v.prepare(p.sets[i], gi, p.opt, p.opt.Epsilon)
		if err == nil {
			o.decision, err = decide(d, p.opt, at)
		}
		o.err, o.verifyT = err, time.Since(t)
		o.answer, o.recorded = o.ssp >= p.opt.Epsilon, true
	}
	return o
}

// query is every threshold query: QueryCtx and the batch members with a
// nil emit, QueryStream with the hook it delivers matches through (see
// evaluate). A query that got past its plan observes its Stats once on
// every exit, failed and cancelled ones included, with every candidate it
// evaluated tallied.
func (v *View) query(ctx context.Context, q *graph.Graph, opt QueryOptions, emit func(Match)) (*Result, error) {
	start := time.Now()
	p, err := v.newPlan(ctx, q, opt, false)
	if err != nil {
		return nil, err
	}
	res := &Result{SSP: make(map[int]float64), Stats: p.stats}
	if p.degenerate {
		res.Answers = p.scq
		for _, gi := range p.scq {
			res.SSP[gi] = 1
			if emit != nil {
				emit(Match{Graph: gi, SSP: 1})
			}
		}
	} else {
		err = v.evaluate(ctx, p, res, emit)
	}
	res.Stats.Answers = len(res.Answers)
	res.Stats.TimeTotal = time.Since(start)
	res.Stats.observe(ctx)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// evaluate runs the plan's candidates through the fused prune+verify stage
// and aggregates the outcomes of those it evaluated into res. A non-nil
// emit is handed each admitted match, one call per match, by the worker
// that completed its candidate — so with Concurrency > 1 calls overlap and
// emit must be safe for that (the stream's is a channel send).
func (v *View) evaluate(ctx context.Context, p *plan, res *Result, emit func(Match)) error {
	scq := p.scq

	// Phases 2+3, fused per candidate: probabilistic pruning via PMI
	// bounds, then verification (§5) for the undecided. Each candidate is
	// independent — bounds combine query-side relations with the graph's
	// PMI row, verification touches only that graph's engine — so the
	// pipeline fans out over the worker pool. Randomized steps draw from a
	// per-candidate RNG seeded by candSeed, making the outcome identical
	// at any concurrency.
	outs := make([]candOutcome, len(scq))
	err := obs.Stage(ctx, "verify", func(ctx context.Context) (int64, error) {
		return int64(len(scq)), pool.ForEachIndexCtx(ctx, len(scq), pool.Normalize(p.opt.Concurrency, len(scq)), func(i int) error {
			o := v.evalCandidate(p, i)
			if o.err != nil {
				return fmt.Errorf("core: verifying graph %d: %w", scq[i], o.err)
			}
			o.ran = true
			outs[i] = o
			if emit != nil && o.answer {
				emit(Match{Graph: scq[i], SSP: o.ssp})
			}
			return nil
		})
	})

	// Deterministic aggregation in database order: scq is ascending, so
	// Answers is too. A failed or cancelled loop still tallies what it
	// evaluated, for observe; its Result is discarded.
	for i, gi := range scq {
		o := outs[i]
		if !o.ran {
			continue
		}
		o.tally(&res.Stats)
		if o.recorded {
			res.SSP[gi] = o.ssp
		}
		if o.answer {
			res.Answers = append(res.Answers, gi)
		}
	}
	return err
}

// VerifySSP decides candidate gi for q at threshold opt.Epsilon the way
// QueryCtx does, and returns the value QueryCtx reports for it; a slot that
// is out of range or tombstoned is ErrNoSuchGraph, and options QueryCtx
// would refuse are refused. u is not read: the DNF is q's, from one search
// at distance opt.Delta.
//
// Verification is a ladder, each rung cheaper than the next. (1) The DNF
// of Equation 22 is collected — here by one budgeted search of q in gc; a
// query's candidates bring the list their confirmation enumerated — and
// every clause probability Pr(Bfi) computed exactly; V = Σ Pr(Bfi) bounds
// everything below from above.
// (2) V < ε rejects with no further work and the value is that bound.
// (3) A DNF whose variable elimination compiles within EliminationBudget —
// 2^19 table entries touched, a clause factor charged only the entries
// where its clause holds — is evaluated exactly by it
// (prob.Engine.ProbNoClause); no sample is drawn. (4) The rest run the SMP
// sampler, which stops early once no
// remaining sample could lift the estimate to ε and then reports the bound
// that proved it. A candidate whose clause search stopped at
// DefaultMaxClausesPerCandidate skips rung 2 and the stop, since its V may
// under-read. So the value is ≥ ε exactly for answers; an answer's value
// is exact or the full SMP estimate, a non-answer's may be an upper bound
// instead. VerifierExact skips rungs 2–4 for inclusion–exclusion: every
// value is exact. The sampler's seed is derived from opt.Seed and gi alone,
// so the value is reproducible regardless of which other graphs are
// verified, in what order, or on how many workers.
func (v *View) VerifySSP(q *graph.Graph, u []*graph.Graph, gi int, opt QueryOptions) (float64, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return 0, err
	}
	if err := v.checkLive(gi, "verifying"); err != nil {
		return 0, err
	}
	d, err := v.verifySSP(q, gi, opt, opt.Epsilon)
	return d.ssp, err
}

// EliminationBudget is the compiled cost, in the units of
// prob.Engine.ProbNoClause — the table entries its steps touch, a clause
// factor charged only the entries where its clause holds — up to which the
// ladder evaluates a DNF exactly by elimination instead of sampling it. It
// was fitted against the full sampler at N = 800 on the DNFs of two or more
// clauses of the ledger corpus (bench/corpus.go: every structural candidate
// of the four workloads' query classes, the serve-churn pool graphs
// included) and of the at-size golden (TestAtSizeGolden): 1 546 DNFs of at
// most 2^22 units, minimum of 30 eliminations and of 14 sampler runs each,
// 2 vCPUs. Medians per cost band, elimination vs sampler, and the largest
// ratio of the two:
//
//	2^9–2^10    91 DNFs     8 vs  156 µs  ≤ 0.09
//	2^13–2^14   45 DNFs    41 vs  281 µs  ≤ 0.26
//	2^15–2^16   20 DNFs   108 vs  376 µs  ≤ 0.46
//	2^16–2^17   23 DNFs   204 vs  448 µs  ≤ 1.17
//	2^17–2^18   13 DNFs   425 vs  563 µs  ≤ 1.06
//	2^18–2^19   17 DNFs   619 vs  657 µs  ≤ 2.03 (median 1.02)
//	2^19–2^20   15 DNFs  1385 vs  704 µs  ≤ 4.86 (median 1.86)
//
// So the budget is the top of the last band whose median DNF eliminates
// within its sampler's time: up to there an exact value costs no more than
// an estimate. No ledger DNF costs more than 2^16 units; the at-size
// golden's heavy classes keep sampling what lies beyond. The charge is
// never above the former one, 2^width for every input, so every DNF the
// former budget of 2^17 admitted is still admitted. An admitted DNF's
// float64 scratch, which the pool keeps, is at most 1.5 · 2^19 entries,
// 6 MiB: the steps' tables, at most half the budget, and the widest step's
// two weight rows, at most the budget (1.1 MB at most on the corpus).
const EliminationBudget = 1 << 19

// decision is what the verification ladder concluded for one candidate:
// the value to report and which rung produced it.
type decision struct {
	ssp     float64
	byBound bool // rejected on the bound, nothing evaluated
	exact   bool // evaluated exactly: by elimination, or VerifierExact's inclusion–exclusion
	samples int  // worlds drawn by the sampler
}

// verifySSP is VerifySSP past its checks — the per-candidate form: gi is a
// live slot and opt is defaulted. It enumerates gi's clauses for itself;
// a plan's candidates were enumerated by their confirmation.
func (v *View) verifySSP(q *graph.Graph, gi int, opt QueryOptions, eps float64) (decision, error) {
	d, at, err := v.prepare(iso.EdgeSetsWithin(q, v.Certain[gi], opt.Delta, DefaultMaxClausesPerCandidate), gi, opt, eps)
	if err != nil {
		return decision{}, err
	}
	return decide(d, opt, at)
}

// prepare is the ladder's first rung: candidate gi's clauses with their
// exact probabilities, and the threshold decide may reject them at. The
// clauses are the DNF of Equation 22 — the distinct edge sets of gc on
// which some rq ∈ U embeds — from one budgeted search of q
// (iso.EdgeSetsWithin at DefaultMaxClausesPerCandidate): all of U, whatever
// MaxRelaxed caps, and no set absorbs another. The threshold is eps, or 0
// when the search stopped at the cap: the list may then be incomplete, its
// V reads only part of the DNF, and no rung may reject on a bound. The
// ranked forms pass eps 0 and get a value for every candidate. The engine
// is not resolved for a candidate without clauses.
func (v *View) prepare(clauses []graph.EdgeSet, gi int, opt QueryOptions, eps float64) (d *verify.DNF, at float64, err error) {
	if len(clauses) == DefaultMaxClausesPerCandidate {
		eps = 0
	}
	vo := opt.Verify
	vo.Seed = candSeed(opt.Seed^verifySalt, v.GID(gi))
	if opt.Verifier == VerifierExact {
		// For Exact, Verify.MaxClauses is the size beyond which it refuses,
		// not a truncation: keep every clause.
		vo.MaxClauses = math.MaxInt
	}
	var eng *prob.Engine
	if len(clauses) > 0 {
		if eng, err = v.Engine(gi); err != nil {
			return nil, eps, err
		}
	}
	d, err = verify.Prepare(eng, clauses, vo)
	return d, eps, err
}

// decide runs the rungs below preparation on d.
func decide(d *verify.DNF, opt QueryOptions, eps float64) (decision, error) {
	switch {
	case opt.Verifier == VerifierExact:
		p, err := d.Exact(opt.Verify.MaxClauses)
		return decision{ssp: p, exact: true}, err
	case d.Bound() < eps:
		return decision{ssp: d.Bound(), byBound: true}, nil
	}
	if p, ok, err := d.Eliminate(EliminationBudget); ok || err != nil {
		return decision{ssp: p, exact: true}, err
	}
	p, n, err := d.Sample(eps)
	return decision{ssp: p, samples: n}, err
}

// ExactSSPByEnumeration computes SSP by full possible-world enumeration —
// the naive Section 1.1 baseline, used by tests and the smallest benches.
func (v *View) ExactSSPByEnumeration(q *graph.Graph, gi, delta int) (float64, error) {
	if err := v.checkLive(gi, "enumerating"); err != nil {
		return 0, err
	}
	eng, err := v.Engine(gi)
	if err != nil {
		return 0, err
	}
	total := 0.0
	err = prob.EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
		if iso.ExistsWithin(q, v.Certain[gi], &w, delta) {
			total += p
		}
		return true
	})
	return total, err
}

type judgement int

const (
	judgeUndecided judgement = iota
	judgePrune
	judgeAccept
)

// pruner evaluates the Pruning 1 / Pruning 2 conditions of §3.1 for one
// query against any graph, reusing the query-side feature/rq relations.
// After construction it is immutable and safe for concurrent calls; the
// plain baseline's random picks draw from a per-candidate scratch.
type pruner struct {
	v   *View
	nu  int // members of U listed
	opt QueryOptions

	// partial reports that the members listed are a prefix of U; Usim is
	// then the trivial 1 (a cover of part of U bounds nothing).
	partial bool

	// rels lists the features that relate to some member, ascending by
	// feature; every other feature is invisible to both bounds.
	rels []relation
}

// relation is one feature's relations to the members of U: sup lists the
// members containing it (rq ⊇iso f, for the upper bound), sub those it
// contains (rq ⊆iso f, for the lower bound; nil in a pruner built without
// it; for a feature of the members' size, sup itself). At least one is
// non-empty.
type relation struct {
	f        int
	sup, sub []int
}

// newPruner builds the query-side feature/relaxed-query relations for U =
// q minus each of the deletion sets deleted (relax.Members: every set has
// δ edges, so every member has |E(q)| − δ), paying per feature that embeds
// in q. partial marks the sets as a prefix of U.
//
// Every rq is a piece of q, so f ⊆iso rq iff some embedding of f in q
// avoids the edges rq lacks: one enumeration per feature — uncapped, a
// capped one could miss the embedding that avoids them and silently
// loosen Usim — and a mask test per member, none for a feature with no
// embedding. The reverse relation rq ⊆iso f is built only when lower is
// set — judge reads it, a ranking, which orders by Usim, does not. A
// feature smaller than the members holds none. One of their size holds
// exactly the members it is contained in: an embedding between two graphs
// with equal edge counts and no isolated vertices is an isomorphism. A
// larger one holds none unless q is within δ of it (one tolerant search),
// and is then tested per member. Those tests, and the fallback for a
// feature with an isolated vertex (which rq, its own isolated vertices
// dropped, may have no image for), match member graphs, built on first
// use and kept for the construction alone. ctx is checked per feature; a
// cancelled construction returns (nil, ctx.Err()).
func (v *View) newPruner(ctx context.Context, q *graph.Graph, deleted []graph.EdgeSet, partial bool, opt QueryOptions, lower bool) (*pruner, error) {
	p := &pruner{v: v, nu: len(deleted), opt: opt, partial: partial}
	delta := 0
	if len(deleted) > 0 {
		delta = deleted[0].Count()
	}
	size := q.NumEdges() - delta
	rqs := make([]*graph.Graph, len(deleted))
	rq := func(i int) *graph.Graph {
		if rqs[i] == nil {
			rqs[i] = relax.Member(q, deleted[i])
		}
		return rqs[i]
	}
	buf := make([]int, 0, len(deleted))
	// those lists the members that pass test, in a slice of their own (nil
	// for none).
	those := func(test func(i int) bool) []int {
		buf = buf[:0]
		for i := range deleted {
			if test(i) {
				buf = append(buf, i)
			}
		}
		if len(buf) == 0 {
			return nil
		}
		return slices.Clone(buf)
	}
	// heldBy lists the members f holds: none unless q is within δ of f.
	heldBy := func(f *graph.Graph) []int {
		if !iso.ExistsWithin(q, f, nil, delta) {
			return nil
		}
		return those(func(i int) bool { return rq(i).NumVertices() <= f.NumVertices() && iso.Exists(rq(i), f, nil) })
	}
	for j, f := range v.PMI.Features {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r := relation{f: j}
		if hasIsolated(f) {
			r.sup = those(func(i int) bool { return iso.Exists(f, rq(i), nil) })
			if lower && f.NumEdges() >= size {
				r.sub = heldBy(f)
			}
		} else {
			if embs := iso.EdgeSets(f, q, nil, 0); len(embs) > 0 {
				r.sup = those(func(i int) bool {
					return slices.ContainsFunc(embs, func(e graph.EdgeSet) bool { return !e.Intersects(deleted[i]) })
				})
			}
			switch {
			case !lower || f.NumEdges() < size:
			case f.NumEdges() == size:
				r.sub = r.sup // shared: neither is written after construction
			default:
				r.sub = heldBy(f)
			}
		}
		if r.sup != nil || r.sub != nil {
			p.rels = append(p.rels, r)
		}
	}
	return p, nil
}

func hasIsolated(g *graph.Graph) bool {
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VertexID(v)) == 0 {
			return true
		}
	}
	return false
}

// judge applies Pruning 1 (upper < ε ⇒ prune) then Pruning 2 (lower ≥ ε ⇒
// accept) to graph gi, working entirely out of a pooled scratch.
func (p *pruner) judge(gi int) judgement {
	usim, sc := p.usim(gi)
	verdict := judgeUndecided
	if usim < p.opt.Epsilon {
		verdict = judgePrune
	} else if p.lowerBound(sc) >= p.opt.Epsilon {
		verdict = judgeAccept
	}
	putScratch(sc)
	return verdict
}

// usim computes Usim(q) for graph gi in a scratch taken for gi's candSeed
// (its global id, so partitions agree bitwise with the full database). The
// scratch comes back holding gi's PMI row, and under plain bounds the
// candidate's stream past the upper bound's draws, for lowerBound to go on
// from; the caller puts it back.
func (p *pruner) usim(gi int) (float64, *scratch) {
	sc := getScratch(candSeed(p.opt.Seed^pruneSalt, p.v.GID(gi)))
	sc.row = p.v.PMI.Lookup(gi)
	return p.upperBound(sc), sc
}

// upperBound computes Usim(q) from the PMI row in sc.row. Soundness:
// rq ⊇iso f means a world containing rq also contains f, so Pr(∨ Brq) ≤
// Σ UpperB over any feature family covering U; relaxed queries no feature
// covers contribute the trivial bound Pr(Brq) ≤ 1. Over a U known only in
// part the bound is that trivial 1.
//
// OPT-SSPBound minimizes the covering weight with the greedy set cover
// (Definition 10, Algorithm 1) over the contained features; each member
// they leave uncovered adds 1 after the cover's weight, as the singleton
// set {rq} of weight 1 would (it shares no element with a feature's set,
// so greedy picks the same features with or without it). Plain SSPBound
// picks one qualifying feature per rq at random (the paper's §6 baseline).
func (p *pruner) upperBound(sc *scratch) float64 {
	if p.partial {
		return 1
	}
	if p.opt.OptBounds {
		in := cover.Instance{NumElements: p.nu}
		in.Sets, in.Weights = sc.sets[:0], sc.wu[:0]
		for _, r := range p.rels {
			if e := sc.row[r.f]; e.Contained && len(r.sup) > 0 {
				in.Sets = append(in.Sets, r.sup)
				in.Weights = append(in.Weights, e.Upper)
			}
		}
		sc.sets, sc.wu = in.Sets, in.Weights
		total, covered := cover.Greedy(in, &sc.cov)
		// One at a time, as the padded instance summed its singletons: a
		// single float64(n) would round differently.
		for range p.nu - covered {
			total += 1
		}
		return total
	}
	total := 0.0
	for i := range p.nu {
		choices := sc.choices[:0]
		for _, r := range p.rels {
			if e := sc.row[r.f]; e.Contained && slices.Contains(r.sup, i) {
				choices = append(choices, e.Upper)
			}
		}
		sc.choices = choices
		if len(choices) == 0 {
			total += 1
			continue
		}
		total += choices[sc.intn(len(choices))]
	}
	return total
}

// lowerBound computes Lsim(q) from the PMI row in sc.row: the largest
// LowerB among the features it may use. Soundness: rq ⊆iso f with f ⊆iso gc
// means a world containing f contains rq, so Pr(Bf) ≥ LowerB_f lower-bounds
// the SSP — over any part of U. OPT-SSPBound may use every contained
// feature that holds some rq; plain SSPBound uses one such feature per rq,
// picked at random (the paper's §6 baseline).
//
// This is the one deliberate departure from the paper's Pruning 2
// (Definition 11, Algorithm 2), which selects a family by a relaxed QP and
// evaluates it as Σ L − (Σ U)². The product step assumes independent
// events, which the correlated model denies, and it can over-accept under
// strong positive correlation; the form that holds for arbitrary
// correlation (Pr(A∧B) ≤ min(Pr A, Pr B)) is Σ_j L_j − Σ_{i<j} min(U_i, U_j),
// and with U ≥ L no family makes it exceed its own largest member: sorted
// by L descending, Σ_{i<j} min(L_i, L_j) = Σ_j (j−1)·L_j ≥ Σ_{j≥2} L_j. From
// marginals alone the best lower bound on a union is its largest term (the
// Fréchet bound), so there is no family to optimise
// (TestBonferroniNeverBeatsBestMember pins the argument).
func (p *pruner) lowerBound(sc *scratch) float64 {
	best := 0.0
	if p.opt.OptBounds {
		for _, r := range p.rels {
			if e := sc.row[r.f]; e.Contained && len(r.sub) > 0 {
				best = max(best, e.Lower)
			}
		}
		return best
	}
	for i := range p.nu {
		choices := sc.choices[:0]
		for _, r := range p.rels {
			if e := sc.row[r.f]; e.Contained && slices.Contains(r.sub, i) {
				choices = append(choices, e.Lower)
			}
		}
		sc.choices = choices
		if len(choices) > 0 {
			best = max(best, choices[sc.intn(len(choices))])
		}
	}
	return best
}
