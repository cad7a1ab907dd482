// Package relax generates the relaxed query set U = {rq1..rqa} of the paper
// (§3.1): the canonically distinct graphs obtained from a query q by
// deleting exactly δ edges. By Lemma 1, q is subgraph-similar to a world g′
// (distance ≤ δ) iff some rq ∈ U is subgraph-isomorphic to g′, so U is the
// one bridge between similarity and plain isomorphism everywhere downstream:
// structural confirmation ("some rq ∈ U embeds in gc"), the pruning
// conditions, and the verification DNF all read the same U, which depends
// on (q, δ) only and is derived once per query (core's query plan).
//
// Relabeling operations are subsumed by deletion under the paper's
// Definition 8 distance (a relabeled edge contributes to the distance
// exactly like a missing edge, and the maximum-relaxation level dominates
// the union per Lemma 1's final step).
package relax

import (
	"probgraph/internal/graph"
)

// DefaultMaxSize bounds |U| to keep adversarial queries from exploding the
// C(|q|, δ) enumeration.
const DefaultMaxSize = 4096

// Relaxed returns the canonically distinct graphs obtained by deleting
// exactly delta edges from q, with isolated vertices dropped at every level
// — Definition 8's distance counts edges only, so an isolated query vertex
// never constrains a match. delta == 0 yields {q} (q itself when it has no
// isolated vertex); delta ≥ |q| yields the empty graph (which embeds
// everywhere). At most maxSize graphs are returned (maxSize <= 0 selects
// DefaultMaxSize), and the enumeration order does not depend on maxSize:
// Relaxed(q, δ, m) is a prefix of Relaxed(q, δ, 0).
func Relaxed(q *graph.Graph, delta, maxSize int) []*graph.Graph {
	if maxSize <= 0 {
		maxSize = DefaultMaxSize
	}
	ne := q.NumEdges()
	if delta <= 0 {
		if rq := q.DropIsolated(); rq.NumVertices() < q.NumVertices() {
			return []*graph.Graph{rq}
		}
		return []*graph.Graph{q}
	}
	if delta >= ne {
		return []*graph.Graph{graph.NewBuilder(q.Name() + "-empty").Build()}
	}
	var out []*graph.Graph
	seen := make(map[string]bool)
	drop := make([]graph.EdgeID, 0, delta)
	var rec func(start graph.EdgeID)
	rec = func(start graph.EdgeID) {
		if len(out) >= maxSize {
			return
		}
		if len(drop) == delta {
			rq := q.DeleteEdges(drop).DropIsolated()
			code := graph.CanonicalCode(rq)
			if !seen[code] {
				seen[code] = true
				out = append(out, rq)
			}
			return
		}
		remaining := delta - len(drop)
		for e := start; int(e) <= ne-remaining; e++ {
			drop = append(drop, e)
			rec(e + 1)
			drop = drop[:len(drop)-1]
		}
	}
	rec(0)
	return out
}
