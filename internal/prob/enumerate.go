package prob

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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
	u := newUnionMemo(e.pg.G.NumEdges())
	total := 0.0
	for mask := 1; mask < 1<<m; mask++ {
		clear(u.words)
		size := 0
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				u.set.UnionWith(clauses[i])
				size++
			}
		}
		p, err := u.prob(e, true)
		if err != nil {
			return 0, err
		}
		if size%2 == 1 {
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
// More than 24 others (2^24 terms) is an error.
func ProbConjNegConj(e *Engine, base *graph.EdgeSet, others []graph.EdgeSet, present bool) (float64, error) {
	m := len(others)
	if m > 24 {
		return 0, fmt.Errorf("prob: %d overlapping sets too many for inclusion-exclusion", m)
	}
	u := newUnionMemo(e.pg.G.NumEdges())
	total := 0.0
	for mask := 0; mask < 1<<m; mask++ {
		clear(u.words)
		if base != nil {
			u.set.UnionWith(*base)
		}
		size := 0
		for j := 0; j < m; j++ {
			if mask&(1<<j) != 0 {
				u.set.UnionWith(others[j])
				size++
			}
		}
		if base == nil && mask == 0 {
			total += 1 // empty conjunction holds with probability 1
			continue
		}
		p, err := u.prob(e, present)
		if err != nil {
			return 0, err
		}
		if size%2 == 0 {
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

// unionMemo is inclusion–exclusion's working state, reused across masks: one
// union set over words it owns, a literal buffer, and the probabilities
// already computed, keyed by the union's words so a hit builds no key.
type unionMemo struct {
	words []uint64
	set   graph.EdgeSet // over words
	key   []byte
	lits  []Literal
	memo  map[string]float64
}

func newUnionMemo(numEdges int) *unionMemo {
	words := make([]uint64, (numEdges+63)/64)
	return &unionMemo{
		words: words,
		set:   graph.EdgeSetOfWords(words, numEdges),
		key:   make([]byte, 8*len(words)),
		memo:  make(map[string]float64),
	}
}

// prob returns the probability that every edge of the union holds the
// given polarity, from the memo when the same union was asked before.
func (u *unionMemo) prob(e *Engine, present bool) (float64, error) {
	for i, w := range u.words {
		binary.LittleEndian.PutUint64(u.key[8*i:], w)
	}
	if p, ok := u.memo[string(u.key)]; ok {
		return p, nil
	}
	u.lits = u.lits[:0]
	for i, w := range u.words {
		for ; w != 0; w &= w - 1 {
			u.lits = append(u.lits, Literal{Edge: graph.EdgeID(64*i + bits.TrailingZeros64(w)), Present: present})
		}
	}
	p, err := e.ProbLits(u.lits)
	if err != nil {
		return 0, err
	}
	u.memo[string(u.key)] = p
	return p, nil
}
