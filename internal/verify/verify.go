// Package verify computes the subgraph similarity probability (SSP) of a
// candidate graph in the verification phase (paper §5).
//
// By Lemma 1 and Equation 22, Pr(q ⊆sim g) = Pr(Bf1 ∨ … ∨ Bfm), where the
// Bfi range over the embeddings of all relaxed queries rq ∈ U in the certain
// graph gc — a DNF whose clauses assert that an embedding's edges all exist.
//
// SMP is the paper's Algorithm 5: the Karp–Luby / coverage Monte-Carlo
// estimator. Clause probabilities Pr(Bfi) come from the exact inference
// engine (the paper's junction-tree step), each one a recompute of only the
// elimination steps its pinned edges reach. Worlds conditioned on a clause
// come from the candidate engine's NewConditioned, one per clause picked: an
// overlay that holds the tables of the steps the clause's edges dirty and
// reads every other table from the candidate's engine. They are drawn
// lazily edge by edge, and the estimator counts a sample only when the
// chosen clause is the first satisfied one. The estimate is V·Cnt/N with V = Σ Pr(Bfi). By the
// zero-one estimator theorem (Mitzenmacher–Upfal) N = ⌈4·ln(2/ξ)/(μτ²)⌉
// samples give relative error τ with confidence 1−ξ, where μ = p/V, p the
// DNF's probability, is the Karp–Luby success rate. The default
// N = ⌈4·ln(2/ξ)/τ²⌉ = 1476 (ξ = 0.05, τ = 0.1) is that count at μ = 1, so
// it gives relative error τ only when μ = 1 (disjoint clauses); at μ < 1
// the error at that N grows to τ/√μ.
//
// Exact is the paper's Equation 21 inclusion–exclusion baseline with
// exponential cost in the clause count; it exists to reproduce the "Exact"
// curves of Figures 9a and 13.
package verify

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// Options tunes the SMP estimator.
type Options struct {
	// N is the sample count (0 selects 1476, see the package doc).
	N int
	// Seed keys the SplitMix64 stream sampling draws from.
	Seed int64
	// MaxClauses caps the DNF; beyond it the clause list is truncated to
	// the most probable clauses (a prefix of the canonical order, see
	// Prepare), which makes the estimate a lower bound. Default 512.
	MaxClauses int
}

// defaultN is the default sample count, ⌈4·ln(2/ξ)/τ²⌉ at ξ = 0.05 and
// τ = 0.1 (see the package doc for what it guarantees).
const defaultN = 1476

func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = defaultN
	}
	if o.MaxClauses == 0 {
		o.MaxClauses = 512
	}
	return o
}

// SMP estimates Pr(∨ clauses) where each clause asserts all of its edges
// exist. Empty input yields 0; a clause with no uncertain edges yields 1.
func SMP(eng *prob.Engine, clauses []graph.EdgeSet, opt Options) (float64, error) {
	d, err := Prepare(eng, clauses, opt)
	if err != nil {
		return 0, err
	}
	est, _, err := d.Sample(0)
	return est, err
}

// DNF is one candidate's verification problem, prepared once: the clauses
// kept after MaxClauses truncation, in canonical order, with their literal
// lists and exact probabilities Pr(Bfi), and V = Σ Pr(Bfi) over the kept
// clauses. Everything that decides the candidate reads this one value —
// Bound before any sample is drawn, then Exact or Sample — so clause
// probabilities are computed once and the three can never disagree on which
// clauses they describe. Bound alone sums over every clause, kept or not, so
// it bounds the whole DNF's probability and not just the kept prefix's. A
// DNF with no clauses, a certain clause (Pr ≥ 1) or V ≤ 0 is decided by
// preparation alone: it keeps no clauses and Bound is its value.
type DNF struct {
	eng     *prob.Engine
	opt     Options  // defaulted
	clauses []clause // canonical order, truncated to MaxClauses
	v       float64  // Σ Pr(Bfi) over the kept clauses
	bound   float64
}

// clause is one conjunct Bfi: its edge set, its literal list and Pr(Bfi).
type clause struct {
	set  graph.EdgeSet
	lits []prob.Literal
	p    float64
}

// Prepare computes the clause probabilities of Pr(∨ clauses) by exact
// inference and puts the clauses in canonical order: descending Pr(Bfi),
// ties broken by the ascending edge list. V is summed in that order, and
// MaxClauses truncation keeps its prefix. Clause 0 is then the likeliest
// pick of Sample, and the clause likeliest to hold is tested first. Bound
// is taken from the same sum continued over the clauses truncation drops.
// eng is not touched when clauses is empty.
func Prepare(eng *prob.Engine, clauses []graph.EdgeSet, opt Options) (*DNF, error) {
	d := &DNF{eng: eng, opt: opt.withDefaults()}
	if len(clauses) == 0 {
		return d, nil
	}
	// Each clause's literal list serves its probability here and its
	// conditioned engine in Sample.
	cs := make([]clause, len(clauses))
	for i, c := range clauses {
		lits := prob.AllPresent(c)
		p, err := eng.ProbLits(lits)
		if err != nil {
			return nil, err
		}
		if p >= 1 {
			d.bound = 1 // certain clause: the union is certain
			return d, nil
		}
		cs[i] = clause{c, lits, p}
	}
	slices.SortFunc(cs, func(a, b clause) int {
		if c := cmp.Compare(b.p, a.p); c != 0 {
			return c
		}
		return slices.CompareFunc(a.lits, b.lits, func(x, y prob.Literal) int { return cmp.Compare(x.Edge, y.Edge) })
	})
	if cs[0].p <= 0 {
		return d, nil // V = 0
	}
	d.clauses = cs[:min(len(cs), d.opt.MaxClauses)]
	for _, c := range d.clauses {
		d.v += c.p
	}
	all := d.v // V over every clause: the kept prefix's sum, continued
	for _, c := range cs[len(d.clauses):] {
		all += c.p
	}
	// The estimate at Cnt = N over every clause's V, rounded and clamped as
	// Sample rounds and clamps it: adding non-negative terms, multiplying and
	// dividing are monotone in floats, so neither a smaller Cnt nor the kept
	// prefix's V can produce a larger value.
	n := float64(d.opt.N)
	d.bound = min(all*n/n, 1)
	return d, nil
}

// Clauses returns the number of clauses left to evaluate (0 when
// preparation decided the DNF).
func (d *DNF) Clauses() int { return len(d.clauses) }

// Bound returns the largest value Exact or Sample can return for this DNF,
// compared bitwise, and is V over every clause, truncated or not — a union
// bound on the whole DNF: a threshold above it rejects the candidate
// without evaluating anything, and a ranking may schedule the candidate by
// it.
func (d *DNF) Bound() float64 { return d.bound }

// Exact computes Pr(∨ clauses) by inclusion–exclusion over the prepared
// clauses, rejecting DNFs beyond maxClauses (0 selects 20) like the
// package-level Exact. The value is clamped to Bound: inclusion–exclusion
// can exceed V by a rounding error, and Bound must hold bitwise.
func (d *DNF) Exact(maxClauses int) (float64, error) {
	if len(d.clauses) == 0 {
		return d.bound, nil
	}
	sets := make([]graph.EdgeSet, len(d.clauses))
	for i, c := range d.clauses {
		sets[i] = c.set
	}
	p, err := prob.ProbDNFExact(d.eng, sets, exactCap(maxClauses))
	return min(p, d.bound), err
}

// rejectStride is how often Sample tests the sure-reject condition.
const rejectStride = 32

// Sample runs Algorithm 5 on the prepared clauses and returns the estimate
// V·Cnt/N with the number of samples taken. A sample picks clause i with
// probability Pr(Bfi)/V and counts when no earlier clause holds in a world
// drawn conditioned on clause i. That world is a prob.LazyWorld, so only
// edges of clauses 0..i−1 are drawn, each clause failing at its first
// absent edge, and a pick of clause 0 draws nothing. With eps > 0 it stops
// as soon as even counting every remaining sample could not lift the
// estimate to eps — V·(Cnt + N − s)/N < eps — and returns that bound
// instead: below eps exactly when the full run's estimate is, so a
// threshold decision never depends on the stop. eps = 0 always takes all N
// samples.
func (d *DNF) Sample(eps float64) (est float64, drawn int, err error) {
	if len(d.clauses) == 0 {
		return d.bound, 0, nil
	}
	n := d.opt.N
	// Cumulative distribution for clause selection.
	cum := make([]float64, len(d.clauses))
	acc := 0.0
	for i, c := range d.clauses {
		acc += c.p
		cum[i] = acc
	}
	// Conditioned samplers, built lazily per clause.
	cond := make([]*prob.Engine, len(d.clauses))
	rng := prob.NewSplitMix(d.opt.Seed)
	world := prob.NewLazyWorld(d.eng)
	cnt := 0
	for s := 0; s < n; s++ {
		if eps > 0 && s%rejectStride == 0 {
			if ub := d.v * float64(cnt+n-s) / float64(n); ub < eps {
				return ub, s, nil
			}
		}
		i := lowerBound(cum, rng.Float64()*d.v)
		if i > 0 {
			if cond[i] == nil {
				ce, err := d.eng.NewConditioned(d.clauses[i].lits)
				if err != nil {
					return 0, s, fmt.Errorf("verify: conditioning on clause %d: %w", i, err)
				}
				cond[i] = ce
			}
			world.Reset(cond[i])
			if anyHolds(world, &rng, d.clauses[:i]) {
				continue
			}
		}
		cnt++
	}
	return min(d.v*float64(cnt)/float64(n), 1), n, nil
}

// anyHolds reports whether some clause holds in w, testing the clauses in
// order and stopping at the first that holds.
func anyHolds(w *prob.LazyWorld, rng *prob.SplitMix, clauses []clause) bool {
	for _, c := range clauses {
		if w.ContainsAll(rng, c.set) {
			return true
		}
	}
	return false
}

// Exact computes Pr(∨ clauses) by inclusion–exclusion (Equation 21),
// rejecting inputs beyond maxClauses (0 selects 20).
func Exact(eng *prob.Engine, clauses []graph.EdgeSet, maxClauses int) (float64, error) {
	return prob.ProbDNFExact(eng, DedupClauses(clauses), exactCap(maxClauses))
}

// exactCap resolves the inclusion–exclusion clause cap (0 selects 20).
func exactCap(maxClauses int) int {
	if maxClauses == 0 {
		return 20
	}
	return maxClauses
}

// DedupClauses removes duplicate and superset clauses: a clause that
// contains another is absorbed by it in a union of conjunctions.
func DedupClauses(clauses []graph.EdgeSet) []graph.EdgeSet {
	var out []graph.EdgeSet
	seen := make(map[string]bool)
	for _, c := range clauses {
		k := c.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	// Absorption: drop clauses that are supersets of another clause.
	var kept []graph.EdgeSet
	for i, c := range out {
		absorbed := false
		for j, d := range out {
			if i == j {
				continue
			}
			if c.ContainsAll(d) && !d.ContainsAll(c) {
				absorbed = true
				break
			}
		}
		if !absorbed {
			kept = append(kept, c)
		}
	}
	// Among equal sets the first survived dedup already.
	return kept
}

// lowerBound returns the first index with cum[i] >= x (the last when none).
func lowerBound(cum []float64, x float64) int {
	return min(sort.SearchFloat64s(cum, x), len(cum)-1)
}
