// Package mcs computes the paper's subgraph distance (Definition 8):
// dis(q, t) = |q| − |mcs(q, t)|, where mcs is the maximum common subgraph —
// the largest edge-subgraph of q that is subgraph-isomorphic to t
// (Definition 7).
//
// Distance and Similar are the Definition 8 reference: they enumerate
// edge-deletion levels bottom-up (delete 0 edges, then 1, …), deriving every
// level's relaxed set on each call — O(Σ_{d≤δ} C(|q|, d)) deletion sets
// before the first isomorphism test. No query path calls them; the iso,
// mcs and simsearch tests compare against them. The query path asks the
// same question of iso.ExistsWithin, one search with a budget of δ
// unmatched query edges.
package mcs

import (
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/relax"
)

// Distance returns dis(q, t) if it is ≤ maxDelta, and maxDelta+1 otherwise.
// mask optionally restricts t to a possible world. Isolated vertices of q do
// not contribute: Definition 8's distance counts edges only.
func Distance(q, t *graph.Graph, mask *graph.EdgeSet, maxDelta int) int {
	if maxDelta < 0 {
		maxDelta = 0
	}
	q = q.DropIsolated()
	for d := 0; d <= maxDelta; d++ {
		for _, rq := range relax.Relaxed(q, d, 0) {
			if iso.Exists(rq, t, mask) {
				return d
			}
		}
	}
	return maxDelta + 1
}

// Similar reports whether dis(q, t) ≤ delta (the paper's q ⊆sim t).
func Similar(q, t *graph.Graph, mask *graph.EdgeSet, delta int) bool {
	return Distance(q, t, mask, delta) <= delta
}
