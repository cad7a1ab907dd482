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
	// Verify tunes the SMP estimator / caps Exact's clause count.
	Verify verify.Options
	// MaxRelaxed caps the relaxed queries the PMI bounds read (0 = all of
	// U; structural confirmation and verification search q with a budget
	// of δ and always read all of it).
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
// refused), δ ≥ 0 and the SMP sample count Verify.N ≥ 0 (0 = default).
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
	return nil
}

// Stats instruments a query run with the paper's reported metrics.
//
// TimeProb and TimeVerify sum the per-candidate compute spent in each
// phase. At Concurrency <= 1 that equals the phase's wall-clock time; with
// a larger pool the candidates overlap, so the sums measure aggregate CPU
// work and only TimeTotal remains wall-clock.
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
	// carries its exact SSP (a DNF of at most exactCrossover clauses, or
	// VerifierExact) or the full SMP estimate. A verified non-answer
	// carries a value below ε that is its exact SSP, the estimate, or an
	// upper bound on the estimate — whichever the ladder of VerifySSP
	// reached first.
	SSP map[int]float64
	// Stats carries phase instrumentation.
	Stats Stats
}

// QueryCtx runs the full T-PS pipeline for query graph q against this
// view. Candidates are evaluated on a pool of opt.Concurrency workers; see
// QueryOptions for the determinism guarantee. Cancellation (or a deadline)
// is checked at every pipeline stage — before the structural scan, per
// exact confirmation, per feature during pruner
// construction, and per candidate in the fused prune+verify loop. A
// cancelled query returns (nil, ctx.Err()) promptly — one in-flight
// candidate evaluation per worker at most — leaks no goroutines, and
// never returns a partial Result.
func (v *View) QueryCtx(ctx context.Context, q *graph.Graph, opt QueryOptions) (*Result, error) {
	return v.query(ctx, q, opt, nil)
}

// candOutcome is the per-candidate result of the fused pruning +
// verification stage, written by exactly one worker.
type candOutcome struct {
	verdict judgement
	decision
	err     error
	probT   time.Duration
	verifyT time.Duration
	ran     bool // set once evaluated without error
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
// for one candidate graph gi of plan p. p.pr == nil skips the pruning
// phase (PMI disabled or bypassed). The outcome is a pure function of
// (v, p, gi): all randomness is seeded from candSeed, so every caller
// computes the identical outcome regardless of scheduling.
//
//pgvet:noalloc
func (v *View) evalCandidate(p *plan, gi int) candOutcome {
	var o candOutcome
	if p.pr != nil {
		t := time.Now()
		o.verdict = p.pr.judge(gi)
		o.probT = time.Since(t)
	}
	if o.verdict != judgeUndecided || p.opt.Verifier == VerifierNone {
		return o
	}
	t := time.Now()
	o.decision, o.err = v.verifySSP(p.q, gi, p.opt, p.opt.Epsilon)
	o.verifyT = time.Since(t)
	return o
}

// outcomeMatch translates a candidate outcome into stream terms: whether
// gi belongs to the answer set, and the SSP to report for it. Verified
// answers carry their estimate; direct lower-bound accepts and
// VerifierNone answers carry -1 ("not re-estimated"), mirroring
// Result.SSP.
func outcomeMatch(o candOutcome, opt QueryOptions) (match bool, ssp float64) {
	switch o.verdict {
	case judgePrune:
		return false, 0
	case judgeAccept:
		return true, -1
	default:
		if opt.Verifier == VerifierNone {
			return true, -1
		}
		return o.ssp >= opt.Epsilon, o.ssp
	}
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
	opt, scq := p.opt, p.scq

	// Phases 2+3, fused per candidate: probabilistic pruning via PMI
	// bounds, then verification (§5) for the undecided. Each candidate is
	// independent — bounds combine query-side relations with the graph's
	// PMI row, verification touches only that graph's engine — so the
	// pipeline fans out over the worker pool. Randomized steps draw from a
	// per-candidate RNG seeded by candSeed, making the outcome identical
	// at any concurrency.
	outs := make([]candOutcome, len(scq))
	sp := obs.SpanFrom(ctx).Child("verify")
	err := pool.ForEachIndexCtx(ctx, len(scq), pool.Normalize(opt.Concurrency, len(scq)), func(i int) error {
		o := v.evalCandidate(p, scq[i])
		if o.err != nil {
			return fmt.Errorf("core: verifying graph %d: %w", scq[i], o.err)
		}
		o.ran = true
		outs[i] = o
		if emit == nil {
			return nil
		}
		if match, ssp := outcomeMatch(o, opt); match {
			emit(Match{Graph: scq[i], SSP: ssp})
		}
		return nil
	})
	sp.EndCount(int64(len(scq)))

	// Deterministic aggregation in database order: scq is ascending, so
	// Answers is too. A failed or cancelled loop still tallies what it
	// evaluated, for observe; its Result is discarded.
	for i, gi := range scq {
		o := outs[i]
		if !o.ran {
			continue
		}
		o.tally(&res.Stats)
		switch o.verdict {
		case judgePrune:
		case judgeAccept:
			res.Answers = append(res.Answers, gi)
			res.SSP[gi] = -1
		default:
			if opt.Verifier == VerifierNone {
				res.Answers = append(res.Answers, gi)
				continue
			}
			res.SSP[gi] = o.ssp
			if o.ssp >= opt.Epsilon {
				res.Answers = append(res.Answers, gi)
			}
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
// of Equation 22 is collected and every clause probability Pr(Bfi)
// computed exactly; V = Σ Pr(Bfi) bounds everything below from above.
// (2) V < ε rejects with no further work and the value is that bound.
// (3) A DNF of at most exactCrossover clauses is evaluated exactly by
// inclusion–exclusion. (4) The rest run the SMP sampler, which stops early
// once no remaining sample could lift the estimate to ε and then reports
// the bound that proved it. So the value is ≥ ε exactly for answers; an
// answer's value is exact or the full SMP estimate, a non-answer's may be
// an upper bound instead. VerifierExact skips rungs 2 and 4: every value is
// exact. The sampler's seed is derived from opt.Seed and gi alone, so the
// value is reproducible regardless of which other graphs are verified, in
// what order, or on how many workers.
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

// exactCrossover is the clause count up to which the ladder evaluates a
// DNF exactly instead of sampling it. Measured on the ledger corpus at
// N = 800 (median µs over 40 DNFs per size, inclusion–exclusion vs the
// full sampler): 2.2 vs 176 at 2 clauses, 24 vs 200 at 6, 68 vs 218 at 8,
// 118 vs 213 at 9, break-even at 10 (195 vs 215), 2 600 vs 224 at 14. At 8
// the exact value costs a third of the estimate it replaces on real
// embeddings, whose unions repeat, and no more than the estimate on random
// clauses that share none (BenchmarkExactVsSample in internal/verify).
const exactCrossover = 8

// decision is what the verification ladder concluded for one candidate:
// the value to report and which rung produced it.
type decision struct {
	ssp     float64
	byBound bool // rejected on the bound, nothing evaluated
	exact   bool // evaluated by inclusion–exclusion
	samples int  // worlds drawn by the sampler
}

// verifySSP is VerifySSP past its checks — the per-candidate form: gi is a
// live slot and opt is defaulted. eps is the threshold the ladder may
// reject against; the ranked forms pass 0 and get a value for every
// candidate.
func (v *View) verifySSP(q *graph.Graph, gi int, opt QueryOptions, eps float64) (decision, error) {
	d, err := v.prepareDNF(q, gi, opt)
	if err != nil {
		return decision{}, err
	}
	return decide(d, opt, eps)
}

// prepareDNF is the ladder's first rung: candidate gi's clauses with their
// exact probabilities, ready for decide. The clauses are the DNF of
// Equation 22 — the distinct edge sets of gc on which some rq ∈ U embeds —
// from one budgeted search of q (iso.EdgeSetsWithin): all of U, whatever
// MaxRelaxed caps, and no set absorbs another. The engine is not resolved
// for a candidate without clauses.
func (v *View) prepareDNF(q *graph.Graph, gi int, opt QueryOptions) (*verify.DNF, error) {
	clauses := iso.EdgeSetsWithin(q, v.Certain[gi], opt.Delta, DefaultMaxClausesPerCandidate)
	vo := opt.Verify
	vo.Seed = candSeed(opt.Seed^verifySalt, v.GID(gi))
	if opt.Verifier == VerifierExact {
		// For Exact, Verify.MaxClauses is the size beyond which it refuses,
		// not a truncation: keep every clause.
		vo.MaxClauses = math.MaxInt
	}
	var eng *prob.Engine
	if len(clauses) > 0 {
		var err error
		if eng, err = v.Engine(gi); err != nil {
			return nil, err
		}
	}
	return verify.Prepare(eng, clauses, vo)
}

// decide runs the rungs below preparation on d.
func decide(d *verify.DNF, opt QueryOptions, eps float64) (decision, error) {
	switch {
	case opt.Verifier == VerifierExact:
		p, err := d.Exact(opt.Verify.MaxClauses)
		return decision{ssp: p, exact: true}, err
	case d.Bound() < eps:
		return decision{ssp: d.Bound(), byBound: true}, nil
	case d.Clauses() <= exactCrossover:
		p, err := d.Exact(0)
		return decision{ssp: p, exact: true}, err
	default:
		p, n, err := d.Sample(eps)
		return decision{ssp: p, samples: n}, err
	}
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
	nu  int // |U|
	opt QueryOptions

	// supOf[j] = relaxed queries containing feature j (rq ⊇iso f, for the
	// upper bound); subOf[j] = relaxed queries contained in feature j
	// (rq ⊆iso f, for the lower bound; nil in a pruner built without it).
	supOf [][]int
	subOf [][]int
}

// newPruner builds the query-side feature/relaxed-query relation tables
// for U = q minus each of the deletion sets deleted (relax.Members). Every
// rq is a piece of q, so f ⊆iso rq iff some embedding of f in q avoids the
// edges rq lacks: one enumeration per feature — uncapped, a capped one
// could miss the embedding that avoids them and silently loosen Usim — and
// a mask test per member. The reverse relation is built only when lower is
// set — judge reads it, a ranking, which orders by Usim, does not — and
// tested per member, but only against features large enough to hold one.
// The member graphs those tests match are built on first use, and kept
// here for the construction alone. ctx is checked per feature; a cancelled
// construction returns (nil, ctx.Err()).
func (v *View) newPruner(ctx context.Context, q *graph.Graph, deleted []graph.EdgeSet, opt QueryOptions, lower bool) (*pruner, error) {
	p := &pruner{v: v, nu: len(deleted), opt: opt}
	nf := v.PMI.NumFeatures()
	p.supOf = make([][]int, nf)
	if lower {
		p.subOf = make([][]int, nf)
	}
	rqs := make([]*graph.Graph, len(deleted))
	rq := func(i int) *graph.Graph {
		if rqs[i] == nil {
			rqs[i] = relax.Member(q, deleted[i])
		}
		return rqs[i]
	}
	for j, f := range v.PMI.Features {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// An isolated vertex of f needs an image that rq, its own isolated
		// vertices dropped, may not have: only mined features (connected,
		// at least one edge) take the mask test.
		contains := func(i int) bool { return iso.Exists(f, rq(i), nil) }
		if !hasIsolated(f) {
			embs := iso.EdgeSets(f, q, nil, 0)
			contains = func(i int) bool {
				return slices.ContainsFunc(embs, func(e graph.EdgeSet) bool { return !e.Intersects(deleted[i]) })
			}
		}
		for i := range deleted {
			if contains(i) {
				p.supOf[j] = append(p.supOf[j], i)
			}
			if lower && q.NumEdges()-deleted[i].Count() <= f.NumEdges() && rq(i).NumVertices() <= f.NumVertices() && iso.Exists(rq(i), f, nil) {
				p.subOf[j] = append(p.subOf[j], i)
			}
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
	sc.entries = p.v.PMI.LookupInto(gi, sc.entries[:0])
	return p.upperBound(sc), sc
}

// upperBound computes Usim(q) from the PMI row in sc.entries. Soundness:
// rq ⊇iso f means a world containing rq also contains f, so Pr(∨ Brq) ≤
// Σ UpperB over any feature family covering U; relaxed queries no feature
// covers contribute the trivial bound Pr(Brq) ≤ 1.
//
// OPT-SSPBound minimizes the covering weight with the greedy set cover
// (Definition 10, Algorithm 1); plain SSPBound picks one qualifying feature
// per rq at random (the paper's §6 baseline).
func (p *pruner) upperBound(sc *scratch) float64 {
	entries := sc.entries
	if p.opt.OptBounds {
		in := cover.Instance{NumElements: p.nu}
		in.Sets, in.Weights = sc.sets[:0], sc.wu[:0]
		covered := clearedBools(&sc.covered, p.nu)
		for j, e := range entries {
			if !e.Contained || len(p.supOf[j]) == 0 {
				continue
			}
			in.Sets = append(in.Sets, p.supOf[j])
			in.Weights = append(in.Weights, e.Upper)
			for _, i := range p.supOf[j] {
				covered[i] = true
			}
		}
		// Uncovered relaxed queries contribute singleton sets of weight 1;
		// sc.singles is the identity list [0,1,...], so the singleton {i}
		// is a subslice of it — no per-set allocation.
		for i := len(sc.singles); i < p.nu; i++ {
			sc.singles = append(sc.singles, i)
		}
		for i, c := range covered {
			if !c {
				in.Sets = append(in.Sets, sc.singles[i:i+1:i+1])
				in.Weights = append(in.Weights, 1)
			}
		}
		sc.sets, sc.wu = in.Sets, in.Weights
		return cover.GreedyScratch(in, &sc.cov).Weight
	}
	total := 0.0
	for i := range p.nu {
		choices := sc.choicesF[:0]
		for j, e := range entries {
			if e.Contained && slices.Contains(p.supOf[j], i) {
				choices = append(choices, e.Upper)
			}
		}
		sc.choicesF = choices
		if len(choices) == 0 {
			total += 1
			continue
		}
		total += choices[sc.intn(len(choices))]
	}
	return total
}

// lowerBound computes Lsim(q) from the PMI row in sc.entries: the largest
// LowerB among the features it may use. Soundness: rq ⊆iso f with f ⊆iso gc
// means a world containing f contains rq, so Pr(Bf) ≥ LowerB_f lower-bounds
// the SSP. OPT-SSPBound may use every contained feature that holds some rq;
// plain SSPBound uses one such feature per rq, picked at random (the
// paper's §6 baseline).
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
		for j, e := range sc.entries {
			if e.Contained && len(p.subOf[j]) > 0 {
				best = max(best, e.Lower)
			}
		}
		return best
	}
	for i := range p.nu {
		choices := sc.choicesI[:0]
		for j, e := range sc.entries {
			if e.Contained && slices.Contains(p.subOf[j], i) {
				choices = append(choices, j)
			}
		}
		sc.choicesI = choices
		if len(choices) > 0 {
			best = max(best, sc.entries[choices[sc.intn(len(choices))]].Lower)
		}
	}
	return best
}
