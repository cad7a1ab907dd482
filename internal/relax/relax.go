// Package relax generates the relaxed query set U = {rq1..rqa} of the paper
// (§3.1): the canonically distinct graphs obtained from a query q by
// deleting exactly δ edges. By Lemma 1, q is subgraph-similar to a world g′
// (distance ≤ δ) iff some rq ∈ U is subgraph-isomorphic to g′, so U is the
// one bridge between similarity and plain isomorphism. Every rq is q minus a
// deletion set, and the query path reads U as those sets alone: Members
// lists them as masks over q's edges, the pruner decides f ⊆iso rq by a
// mask test against the embeddings of f in q, and neither structural
// confirmation nor the verification DNF enumerates U — iso.ExistsWithin and
// iso.EdgeSetsWithin search q itself with a budget of δ. U depends on
// (q, δ) only and is derived once per query (core's query plan).
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
// DefaultMaxSize), from a walk Enumerate bounds, and the enumeration order
// does not depend on maxSize: Relaxed(q, δ, m) is a prefix of
// Relaxed(q, δ, 0).
func Relaxed(q *graph.Graph, delta, maxSize int) []*graph.Graph {
	switch {
	case delta <= 0:
		if d := q.DropIsolated(); d.NumVertices() < q.NumVertices() {
			return []*graph.Graph{d}
		}
		return []*graph.Graph{q}
	case delta >= q.NumEdges():
		return []*graph.Graph{graph.NewBuilder(q.Name() + "-empty").Build()}
	}
	deleted := Members(q, delta, maxSize)
	u := make([]*graph.Graph, len(deleted))
	for i, d := range deleted {
		u[i] = Member(q, d)
	}
	return u
}

// Members returns the deletion sets of Relaxed's members, in its order, as
// masks over q's edge ids: Relaxed(q, δ, m)[i] is Member(q, Members(q, δ,
// m)[i]) up to isomorphism. It is Enumerate without the completeness flag.
func Members(q *graph.Graph, delta, maxSize int) []graph.EdgeSet {
	deleted, _ := Enumerate(q, delta, maxSize)
	return deleted
}

// walkFactor bounds Enumerate's walk at walkFactor·max(maxSize,
// DefaultMaxSize) deletion sets. A query whose deletions are mostly
// isomorphic keeps few members however many sets it walks: a single-label
// star of 20 edges at δ 10 walked all C(20, 10) = 184 756 sets, at ≈ 7 µs
// each, to keep one.
const walkFactor = 4

// Enumerate returns the deletion sets of U, in Relaxed's order, and whether
// they are all of U. Deletion sets are enumerated in lexicographic order
// and the first of each isomorphism class is kept; the walk stops once
// maxSize members are kept (maxSize <= 0 selects DefaultMaxSize) or
// walkFactor·max(maxSize, DefaultMaxSize) sets are walked, and complete
// reports that it walked every set. The order does not depend on where the
// walk stops, so a shorter walk returns a prefix of a longer one.
//
// Classes are told apart by an isomorphism-invariant fingerprint of
// (q, deletion set) first. Only where a fingerprint repeats are member
// graphs built, for graph.CanonicalCode. In a profile of the benchmark
// ledger's engine-filter query loop (ten-edge queries at δ 2, a query and
// a top-k each, one worker), the walk takes 8 % of the time; of that the
// codes take 16 %, the fingerprints 24 % and building the member graphs
// 22 %.
func Enumerate(q *graph.Graph, delta, maxSize int) (deleted []graph.EdgeSet, complete bool) {
	if maxSize <= 0 {
		maxSize = DefaultMaxSize
	}
	ne := q.NumEdges()
	switch {
	case delta <= 0:
		return []graph.EdgeSet{graph.NewEdgeSet(ne)}, true
	case delta >= ne:
		return []graph.EdgeSet{graph.FullEdgeSet(ne)}, true
	}
	fingerprint := fingerprints(q)
	// holder maps a fingerprint to the member that first showed it, or to
	// -1 once that member's canonical code is in seen — which happens when
	// the fingerprint shows a second time.
	holder := make(map[uint64]int)
	seen := make(map[string]bool)
	drop := make([]graph.EdgeID, 0, delta)
	walked, budget, stopped := 0, walkFactor*max(maxSize, DefaultMaxSize), false
	var rec func(start graph.EdgeID)
	rec = func(start graph.EdgeID) {
		// Every call has a deletion set below it, so one that returns here
		// leaves a set unwalked.
		if len(deleted) >= maxSize || walked >= budget {
			stopped = true
			return
		}
		if len(drop) == delta {
			walked++
			mask := graph.NewEdgeSet(ne)
			for _, e := range drop {
				mask.Add(e)
			}
			f := fingerprint(mask)
			if first, dup := holder[f]; dup {
				if first >= 0 {
					seen[graph.CanonicalCode(Member(q, deleted[first]))] = true
					holder[f] = -1
				}
				code := graph.CanonicalCode(Member(q, mask))
				if seen[code] {
					return
				}
				seen[code] = true
			} else {
				holder[f] = len(deleted)
			}
			deleted = append(deleted, mask)
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
	return deleted, !stopped
}

// Member returns the relaxed query of one deletion set: q without the
// edges in deleted and without the vertices that leaves isolated, built
// once (graph.Without).
func Member(q *graph.Graph, deleted graph.EdgeSet) *graph.Graph {
	return q.Without(deleted)
}

// fingerprints returns the function that folds, for q minus a deletion set,
// the multiset of ⟨label u, degree u, label v, degree v, edge label⟩ over
// the surviving edges (degrees after the deletion, endpoints unordered)
// into one integer. Isomorphic graphs have equal multisets, so different
// fingerprints prove different classes; equal ones prove nothing.
func fingerprints(q *graph.Graph) func(deleted graph.EdgeSet) uint64 {
	ids := make(map[graph.Label]uint64) // a small number per label of q
	id := func(l graph.Label) uint64 {
		if _, ok := ids[l]; !ok {
			ids[l] = uint64(len(ids))
		}
		return ids[l]
	}
	vlabel, elabel := make([]uint64, q.NumVertices()), make([]uint64, q.NumEdges())
	for v := range vlabel {
		vlabel[v] = id(q.VertexLabel(graph.VertexID(v)))
	}
	for e := range elabel {
		elabel[e] = id(q.EdgeLabel(graph.EdgeID(e)))
	}
	deg := make([]int, q.NumVertices())
	return func(deleted graph.EdgeSet) uint64 {
		clear(deg)
		for id := range elabel {
			if e := q.Edge(graph.EdgeID(id)); !deleted.Contains(graph.EdgeID(id)) {
				deg[e.U]++
				deg[e.V]++
			}
		}
		var sum uint64
		for id, l := range elabel {
			if deleted.Contains(graph.EdgeID(id)) {
				continue
			}
			e := q.Edge(graph.EdgeID(id))
			a := vlabel[e.U]<<16 | uint64(deg[e.U])
			b := vlabel[e.V]<<16 | uint64(deg[e.V])
			if a > b {
				a, b = b, a
			}
			// A sum of well-mixed terms is order-free, as a multiset must be.
			sum += mix(mix(a<<32|b) + l)
		}
		return sum
	}
}

// mix is the SplitMix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
