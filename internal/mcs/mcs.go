// Package mcs computes the paper's subgraph distance (Definition 8):
// dis(q, t) = |q| − |mcs(q, t)|, where mcs is the maximum common subgraph —
// the largest edge-subgraph of q that is subgraph-isomorphic to t
// (Definition 7).
//
// Distance and Similar are the Definition 8 reference: they enumerate
// edge-deletion levels bottom-up (delete 0 edges, then 1, …), deriving every
// level's relaxed set on each call — O(Σ_{d≤δ} C(|q|, d)) canonical codes
// before the first isomorphism test. No query path calls them; the mcs and
// simsearch tests compare against them. The query path uses SimilarVia,
// Lemma 1's form of the same test over a relaxed set U the caller derived
// once: q ⊆sim t iff some rq ∈ U embeds in t.
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

// SimilarVia reports whether any of the pre-relaxed graphs embeds in t
// under mask. Per Lemma 1 this is equivalent to Similar(q, t, mask, δ) for
// relaxed = relax.Relaxed(q, δ, 0); the caller derives that set once and
// reuses it for every t.
func SimilarVia(relaxed []*graph.Graph, t *graph.Graph, mask *graph.EdgeSet) bool {
	for _, rq := range relaxed {
		if iso.Exists(rq, t, mask) {
			return true
		}
	}
	return false
}
