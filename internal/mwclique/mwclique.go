// Package mwclique solves the maximum weight clique problem the paper's
// PMI bounds use to pick the tightest families of disjoint embeddings
// (lower bound, §4.1.1) and disjoint embedding cuts (upper bound, §4.1.2).
// The index stores exact cells instead, so no engine package imports it;
// the ledger under bench/ still times it as a kernel.
//
// The solver is a branch-and-bound in the spirit of Balas–Xue (reference [7]
// of the paper): vertices are ordered by weight, and a greedy coloring of
// the candidate set provides the upper bound (sum over color classes of the
// heaviest member). Inputs here are tiny graphs over embeddings/cuts
// (tens of nodes), for which the exact search is immediate; a guard falls
// back to a greedy solution beyond a node budget.
package mwclique

import "sort"

// MaxExactNodes is the input size beyond which Solve switches from exact
// branch-and-bound to the greedy heuristic.
const MaxExactNodes = 400

// Graph is an undirected graph over nodes 0..N-1 given by an adjacency
// matrix, with nonnegative node weights.
type Graph struct {
	N      int
	Adj    [][]bool
	Weight []float64
}

// NewGraph allocates an empty graph with n nodes and zero weights.
func NewGraph(n int) *Graph {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	return &Graph{N: n, Adj: adj, Weight: make([]float64, n)}
}

// AddEdge links nodes i and j.
func (g *Graph) AddEdge(i, j int) {
	if i == j {
		return
	}
	g.Adj[i][j] = true
	g.Adj[j][i] = true
}

// Result is a clique and its total weight.
type Result struct {
	Nodes  []int
	Weight float64
	Exact  bool // false when the greedy fallback produced the answer
}

// Solve returns a maximum weight clique of g. Zero-weight nodes are
// admissible but never help, so they are only included when free.
func Solve(g *Graph) Result {
	if g.N == 0 {
		return Result{Exact: true}
	}
	if g.N > MaxExactNodes {
		r := greedy(g)
		r.Exact = false
		return r
	}
	s := &solver{g: g}
	// Seed with greedy so pruning starts effective.
	seed := greedy(g)
	s.best = seed.Weight
	s.bestSet = seed.Nodes

	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.Weight[order[a]] > g.Weight[order[b]] })
	s.expand(order, nil, 0)
	sort.Ints(s.bestSet)
	return Result{Nodes: s.bestSet, Weight: s.best, Exact: true}
}

type solver struct {
	g       *Graph
	best    float64
	bestSet []int
}

// colorBound returns an upper bound on the best clique weight within cand:
// nodes are greedily partitioned into independent-set color classes; any
// clique takes at most one node per class, so the sum of per-class maxima
// bounds the achievable weight.
func (s *solver) colorBound(cand []int) float64 {
	var classes [][]int
	var classMax []float64
	for _, v := range cand {
		placed := false
		for ci, class := range classes {
			ok := true
			for _, u := range class {
				if s.g.Adj[v][u] {
					ok = false
					break
				}
			}
			if ok {
				classes[ci] = append(classes[ci], v)
				if s.g.Weight[v] > classMax[ci] {
					classMax[ci] = s.g.Weight[v]
				}
				placed = true
				break
			}
		}
		if !placed {
			classes = append(classes, []int{v})
			classMax = append(classMax, s.g.Weight[v])
		}
	}
	bound := 0.0
	for _, m := range classMax {
		bound += m
	}
	return bound
}

func (s *solver) expand(cand []int, cur []int, curW float64) {
	if len(cand) == 0 {
		if curW > s.best {
			s.best = curW
			s.bestSet = append([]int(nil), cur...)
		}
		return
	}
	if curW+s.colorBound(cand) <= s.best {
		return
	}
	for i, v := range cand {
		// Remaining-weight bound for this branch position.
		rem := 0.0
		for _, u := range cand[i:] {
			rem += s.g.Weight[u]
		}
		if curW+rem <= s.best {
			return
		}
		var next []int
		for _, u := range cand[i+1:] {
			if s.g.Adj[v][u] {
				next = append(next, u)
			}
		}
		s.expand(next, append(cur, v), curW+s.g.Weight[v])
	}
	if curW > s.best {
		s.best = curW
		s.bestSet = append([]int(nil), cur...)
	}
}

// greedy grows a clique by repeatedly adding the heaviest compatible node.
func greedy(g *Graph) Result {
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.Weight[order[a]] > g.Weight[order[b]] })
	var clique []int
	w := 0.0
	for _, v := range order {
		ok := true
		for _, u := range clique {
			if !g.Adj[v][u] {
				ok = false
				break
			}
		}
		if ok {
			clique = append(clique, v)
			w += g.Weight[v]
		}
	}
	sort.Ints(clique)
	return Result{Nodes: clique, Weight: w}
}
