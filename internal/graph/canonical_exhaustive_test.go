package graph

import "testing"

// TestCanonicalCodeExhaustiveOracle enumerates every labeled graph on 4
// vertices with 2 vertex labels and unlabeled edges (2^4 label choices ×
// 2^6 edge subsets = 1024 graphs) and checks, for every pair, that
// canonical-code equality coincides exactly with brute-force isomorphism,
// and that every code is the oracle's, byte for byte.
func TestCanonicalCodeExhaustiveOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle is slow")
	}
	const n = 4
	pairs := [][2]VertexID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	var graphs []*Graph
	var codes []string
	for lm := 0; lm < 1<<n; lm++ {
		for em := 0; em < 1<<len(pairs); em++ {
			b := NewBuilder("x")
			for v := 0; v < n; v++ {
				if lm&(1<<v) != 0 {
					b.AddVertex("a")
				} else {
					b.AddVertex("b")
				}
			}
			for pi, p := range pairs {
				if em&(1<<pi) != 0 {
					b.MustAddEdge(p[0], p[1], "")
				}
			}
			g := b.Build()
			graphs = append(graphs, g)
			codes = append(codes, CanonicalCode(g))
			if want := canonicalCodeOracle(g); codes[len(codes)-1] != want {
				t.Fatalf("code %q, oracle %q\n%v", codes[len(codes)-1], want, g)
			}
		}
	}
	perms := permutations(n)
	isoOracle := func(a, b *Graph) bool {
		if a.NumEdges() != b.NumEdges() {
			return false
		}
		for _, perm := range perms {
			ok := true
			for v := 0; v < n && ok; v++ {
				ok = a.VertexLabel(VertexID(v)) == b.VertexLabel(VertexID(perm[v]))
			}
			for _, e := range a.Edges() {
				if !ok {
					break
				}
				_, has := b.EdgeBetween(VertexID(perm[e.U]), VertexID(perm[e.V]))
				ok = has
			}
			if ok {
				return true
			}
		}
		return false
	}
	// Compare a deterministic sample of pairs (full 1024² is ~1M pairs —
	// feasible but slow with the permutation oracle; stride keeps ~40k
	// pairs while covering every graph).
	checked := 0
	for i := 0; i < len(graphs); i++ {
		for j := i; j < len(graphs); j += 13 {
			same := codes[i] == codes[j]
			iso := isoOracle(graphs[i], graphs[j])
			if same != iso {
				t.Fatalf("graphs %d vs %d: canonical says %v, oracle says %v\n%v\n%v",
					i, j, same, iso, graphs[i], graphs[j])
			}
			checked++
		}
	}
	if checked < 10000 {
		t.Fatalf("only %d pairs checked", checked)
	}
}

func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				perm[i] = v
				rec(i + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return out
}
