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
// Equation 21 / "Exact" baseline). Cost is Θ(2^len(clauses)) unions; each
// distinct union is priced once, and all of them in one ProbLitsBatch call,
// so their restrictions share its memo. Callers cap the clause count.
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
	n := e.pg.G.NumEdges()
	words := make([]uint64, (n+63)/64)
	union := graph.EdgeSetOfWords(words, n)
	key := make([]byte, 8*len(words)) // union's words, so a repeat builds no key
	seen := make(map[string]int32)
	var distinct [][]graph.EdgeID
	of := make([]int32, 1<<m) // per mask, its union's index in distinct
	for mask := 1; mask < 1<<m; mask++ {
		clear(words)
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				union.UnionWith(clauses[i])
			}
		}
		for i, w := range words {
			binary.LittleEndian.PutUint64(key[8*i:], w)
		}
		k, ok := seen[string(key)]
		if !ok {
			k = int32(len(distinct))
			seen[string(key)] = k
			distinct = append(distinct, union.Slice())
		}
		of[mask] = k
	}
	p := make([]float64, len(distinct))
	if err := e.ProbLitsBatch(distinct, p); err != nil {
		return 0, err
	}
	total := 0.0
	for mask := 1; mask < 1<<m; mask++ {
		if bits.OnesCount(uint(mask))%2 == 1 {
			total += p[of[mask]]
		} else {
			total -= p[of[mask]]
		}
	}
	return min(max(total, 0), 1), nil
}
