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
		p, err := u.prob(e)
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

// unionMemo is inclusion–exclusion's working state, reused across masks: one
// union set over words it owns, an edge buffer, and the probabilities
// already computed, keyed by the union's words so a hit builds no key.
type unionMemo struct {
	words []uint64
	set   graph.EdgeSet // over words
	key   []byte
	edges []graph.EdgeID
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

// prob returns the probability that every edge of the union is present,
// from the memo when the same union was asked before.
func (u *unionMemo) prob(e *Engine) (float64, error) {
	for i, w := range u.words {
		binary.LittleEndian.PutUint64(u.key[8*i:], w)
	}
	if p, ok := u.memo[string(u.key)]; ok {
		return p, nil
	}
	u.edges = u.edges[:0]
	for i, w := range u.words {
		for ; w != 0; w &= w - 1 {
			u.edges = append(u.edges, graph.EdgeID(64*i+bits.TrailingZeros64(w)))
		}
	}
	p, err := e.ProbLits(u.edges)
	if err != nil {
		return 0, err
	}
	u.memo[string(u.key)] = p
	return p, nil
}
