package prob

import (
	"fmt"

	"probgraph/internal/graph"
)

// MaxEnumerableUncertain bounds full possible-world enumeration.
const MaxEnumerableUncertain = 24

// EnumerateWorlds calls fn for every possible world of pg with its
// normalized probability. Worlds with probability zero are skipped. The
// world EdgeSet passed to fn is reused between calls; clone it to retain.
// It fails when the uncertain edge count exceeds MaxEnumerableUncertain.
func EnumerateWorlds(e *Engine, fn func(world graph.EdgeSet, p float64) bool) error {
	pg := e.pg
	n := len(pg.uncertain)
	if n > MaxEnumerableUncertain {
		return fmt.Errorf("prob: %d uncertain edges exceed enumeration limit %d", n, MaxEnumerableUncertain)
	}
	world := pg.NewWorld()
	for m := 0; m < 1<<n; m++ {
		for i, ed := range pg.uncertain {
			world.Set(ed, m&(1<<i) != 0)
		}
		p := e.WorldProb(world)
		if p > 0 {
			if !fn(world, p) {
				return nil
			}
		}
	}
	return nil
}

// ProbDNFExact computes Pr(∨ clauses) where each clause asserts that all of
// its edges exist, via inclusion–exclusion over clauses (the paper's
// Equation 21 / "Exact" baseline). Cost is Θ(2^len(clauses)) inference
// queries with memoization on edge-set unions; callers cap the clause count.
func ProbDNFExact(e *Engine, clauses []graph.EdgeSet, maxClauses int) (float64, error) {
	m := len(clauses)
	if m == 0 {
		return 0, nil
	}
	if maxClauses > 0 && m > maxClauses {
		return 0, fmt.Errorf("prob: %d clauses exceed exact cap %d", m, maxClauses)
	}
	if m > 30 {
		return 0, fmt.Errorf("prob: %d clauses too many for inclusion-exclusion", m)
	}
	memo := make(map[string]float64)
	total := 0.0
	ne := e.pg.G.NumEdges()
	for mask := 1; mask < 1<<m; mask++ {
		union := graph.NewEdgeSet(ne)
		bits := 0
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				union.UnionWith(clauses[i])
				bits++
			}
		}
		key := union.Key()
		p, ok := memo[key]
		if !ok {
			var err error
			p, err = e.ProbAllPresent(union)
			if err != nil {
				return 0, err
			}
			memo[key] = p
		}
		if bits%2 == 1 {
			total += p
		} else {
			total -= p
		}
	}
	if total < 0 {
		total = 0
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}

// ProbConjNegConj computes Pr(base ∧ ⋀_j ¬other_j) exactly, where base and
// each other_j assert that all edges of the set hold the given polarity
// (present=true: edges exist; present=false: edges are absent — the cut
// case). This is the exact counterpart of the paper's Algorithm 3 for
// Pr(Bf|COR) and Pr(Bc|COM) numerators/denominators:
//
//	Pr(base ∧ ⋀¬other_j) = Σ_{J⊆others} (−1)^{|J|} Pr(base ∧ ⋀_{j∈J} other_j)
//
// When base is nil the leading conjunct is dropped (computes Pr(⋀¬other_j)).
func ProbConjNegConj(e *Engine, base *graph.EdgeSet, others []graph.EdgeSet, present bool, maxOthers int) (float64, error) {
	m := len(others)
	if maxOthers > 0 && m > maxOthers {
		return 0, fmt.Errorf("prob: %d overlapping sets exceed exact cap %d", m, maxOthers)
	}
	if m > 24 {
		return 0, fmt.Errorf("prob: %d overlapping sets too many for inclusion-exclusion", m)
	}
	ne := e.pg.G.NumEdges()
	memo := make(map[string]float64)
	probOf := func(union graph.EdgeSet) (float64, error) {
		key := union.Key()
		if p, ok := memo[key]; ok {
			return p, nil
		}
		p, err := e.ProbLits(literals(union, present))
		if err != nil {
			return 0, err
		}
		memo[key] = p
		return p, nil
	}
	total := 0.0
	for mask := 0; mask < 1<<m; mask++ {
		union := graph.NewEdgeSet(ne)
		if base != nil {
			union.UnionWith(*base)
		}
		bits := 0
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				union.UnionWith(others[j])
				bits++
			}
		}
		if base == nil && mask == 0 {
			total += 1 // empty conjunction holds with probability 1
			continue
		}
		p, err := probOf(union)
		if err != nil {
			return 0, err
		}
		if bits%2 == 0 {
			total += p
		} else {
			total -= p
		}
	}
	if total < 0 {
		total = 0
	}
	if total > 1 {
		total = 1
	}
	return total, nil
}
