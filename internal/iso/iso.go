// Package iso implements subgraph isomorphism testing and embedding
// enumeration for labeled undirected graphs, in the style of VF2
// (Cordella/Foggia/Sansone/Vento, TPAMI 2004 — reference [10] of the paper)
// with a connectivity-aware static ordering and label/degree feasibility
// pruning.
//
// Matching is the paper's Definition 5: an injective vertex mapping that
// preserves vertex labels, maps every pattern edge onto a target edge, and
// preserves edge labels. Non-pattern edges of the target are unconstrained
// (non-induced matching). A match restricted to a possible world is obtained
// by passing the world's edge mask: target edges absent from the mask are
// treated as nonexistent.
package iso

import (
	"sort"

	"probgraph/internal/graph"
)

// Embedding is one occurrence of a pattern inside a target graph.
type Embedding struct {
	// VMap maps each pattern vertex to its target image.
	VMap []graph.VertexID
	// Edges is the set of target edges used by the pattern's edges. Two
	// embeddings with equal edge sets behave identically in every
	// probabilistic computation, so most callers deduplicate on this.
	Edges graph.EdgeSet
}

// matcher holds the search state for one (pattern, target) pair.
type matcher struct {
	p, t    *graph.Graph
	mask    *graph.EdgeSet
	order   []graph.VertexID // pattern vertices in matching order
	parent  []int            // index into order of an already-matched neighbor, or -1
	pmap    []graph.VertexID // pattern -> target, -1 when unmatched
	tused   []bool
	yield   func(*Embedding) bool
	stopped bool
}

// buildOrder computes a static matching order: a BFS through each pattern
// component starting from the most constrained vertex (rarest label, then
// highest degree), so that all but component-initial vertices have a matched
// parent to anchor candidate generation.
func buildOrder(p, t *graph.Graph) (order []graph.VertexID, parent []int) {
	n := p.NumVertices()
	order = make([]graph.VertexID, 0, n)
	parent = make([]int, 0, n)
	placed := make([]bool, n)
	pos := make([]int, n) // vertex -> index in order

	tLabelCount, _ := t.LabelCounts()
	rarity := make([]int, n) // how often the target carries each pattern vertex's label
	for v := range rarity {
		rarity[v] = tLabelCount.Of(p.VertexLabel(graph.VertexID(v)))
	}

	for len(order) < n {
		// Pick the best unplaced vertex preferring attachment to the matched
		// prefix, then rare target label, then high degree.
		best := graph.VertexID(-1)
		bestParent := -1
		bestKey := [3]int{1 << 30, 1 << 30, 1 << 30}
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			par := -1
			for _, h := range p.Neighbors(graph.VertexID(v)) {
				if placed[h.To] {
					par = pos[h.To]
					break
				}
			}
			attached := 1
			if par >= 0 {
				attached = 0
			}
			key := [3]int{attached, rarity[v], -p.Degree(graph.VertexID(v))}
			if key[0] < bestKey[0] || (key[0] == bestKey[0] && (key[1] < bestKey[1] || (key[1] == bestKey[1] && key[2] < bestKey[2]))) {
				best, bestParent, bestKey = graph.VertexID(v), par, key
			}
		}
		placed[best] = true
		pos[best] = len(order)
		order = append(order, best)
		parent = append(parent, bestParent)
	}
	return order, parent
}

// feasible performs the cheap global pre-checks: every pattern vertex label
// and edge label must occur at least as often in the target. With a world
// mask the edge check is skipped (counting masked labels costs as much as
// matching).
func feasible(p, t *graph.Graph, mask *graph.EdgeSet) bool {
	if p.NumVertices() > t.NumVertices() || p.NumEdges() > t.NumEdges() {
		return false
	}
	pv, pe := p.LabelCounts()
	tv, te := t.LabelCounts()
	return tv.Covers(pv) && (mask != nil || te.Covers(pe))
}

func (m *matcher) run() {
	n := m.p.NumVertices()
	if n == 0 {
		em := Embedding{VMap: nil, Edges: graph.NewEdgeSet(m.t.NumEdges())}
		m.yield(&em)
		return
	}
	m.pmap = make([]graph.VertexID, n)
	for i := range m.pmap {
		m.pmap[i] = -1
	}
	m.tused = make([]bool, m.t.NumVertices())
	m.extend(0)
}

// edgeAlive reports whether target edge id exists under the world mask.
func (m *matcher) edgeAlive(id graph.EdgeID) bool {
	return m.mask == nil || m.mask.Contains(id)
}

// check verifies that mapping pattern vertex pv to target vertex tv is
// consistent: labels equal, tv unused, and every pattern edge from pv to an
// already-matched vertex has a live, label-matching target edge.
func (m *matcher) check(pv, tv graph.VertexID) bool {
	if m.tused[tv] || m.p.VertexLabel(pv) != m.t.VertexLabel(tv) {
		return false
	}
	if m.mask == nil && m.p.Degree(pv) > m.t.Degree(tv) {
		return false
	}
	for _, h := range m.p.Neighbors(pv) {
		w := m.pmap[h.To]
		if w < 0 {
			continue
		}
		id, ok := m.t.EdgeBetween(tv, w)
		if !ok || !m.edgeAlive(id) || m.t.EdgeLabel(id) != m.p.EdgeLabel(h.Edge) {
			return false
		}
	}
	return true
}

func (m *matcher) extend(depth int) {
	if m.stopped {
		return
	}
	if depth == len(m.order) {
		m.emit()
		return
	}
	pv := m.order[depth]
	if par := m.parent[depth]; par >= 0 {
		// Anchored: candidates are live neighbors of the parent's image.
		anchor := m.pmap[m.order[par]]
		// Find the pattern edge pv—order[par] to match labels early.
		var want graph.Label
		for _, h := range m.p.Neighbors(pv) {
			if h.To == m.order[par] {
				want = m.p.EdgeLabel(h.Edge)
				break
			}
		}
		for _, h := range m.t.Neighbors(anchor) {
			if !m.edgeAlive(h.Edge) || m.t.EdgeLabel(h.Edge) != want {
				continue
			}
			m.tryAssign(pv, h.To, depth)
			if m.stopped {
				return
			}
		}
		return
	}
	// Component-initial vertex: try every unused target vertex.
	for tv := 0; tv < m.t.NumVertices(); tv++ {
		m.tryAssign(pv, graph.VertexID(tv), depth)
		if m.stopped {
			return
		}
	}
}

func (m *matcher) tryAssign(pv, tv graph.VertexID, depth int) {
	if !m.check(pv, tv) {
		return
	}
	m.pmap[pv] = tv
	m.tused[tv] = true
	m.extend(depth + 1)
	m.pmap[pv] = -1
	m.tused[tv] = false
}

func (m *matcher) emit() {
	em := Embedding{
		VMap:  append([]graph.VertexID(nil), m.pmap...),
		Edges: graph.NewEdgeSet(m.t.NumEdges()),
	}
	for _, e := range m.p.Edges() {
		id, _ := m.t.EdgeBetween(em.VMap[e.U], em.VMap[e.V])
		em.Edges.Add(id)
	}
	if !m.yield(&em) {
		m.stopped = true
	}
}

// Exists reports whether pattern p is subgraph-isomorphic to target t,
// optionally restricted to the possible world mask (nil = certain graph).
func Exists(p, t *graph.Graph, mask *graph.EdgeSet) bool {
	if !feasible(p, t, mask) {
		return false
	}
	found := false
	order, parent := buildOrder(p, t)
	m := &matcher{p: p, t: t, mask: mask, order: order, parent: parent,
		yield: func(*Embedding) bool { found = true; return false }}
	m.run()
	return found
}

// ForEach enumerates embeddings of p in t (under mask) and calls fn for each;
// fn returns false to stop early. Embeddings are produced per injective
// vertex mapping; callers that only care about edge sets should deduplicate
// (see EdgeSets).
func ForEach(p, t *graph.Graph, mask *graph.EdgeSet, fn func(*Embedding) bool) {
	if !feasible(p, t, mask) {
		return
	}
	order, parent := buildOrder(p, t)
	m := &matcher{p: p, t: t, mask: mask, order: order, parent: parent, yield: fn}
	m.run()
}

// FindAll returns up to limit embeddings of p in t (limit <= 0 means all).
func FindAll(p, t *graph.Graph, mask *graph.EdgeSet, limit int) []Embedding {
	var out []Embedding
	ForEach(p, t, mask, func(e *Embedding) bool {
		out = append(out, *e)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// EdgeSets returns the distinct edge sets of embeddings of p in t, capped at
// limit distinct sets (limit <= 0 means all). This is the set Ef of the
// paper's Section 4.1: probabilistic events only depend on which target
// edges an embedding occupies.
func EdgeSets(p, t *graph.Graph, mask *graph.EdgeSet, limit int) []graph.EdgeSet {
	var out []graph.EdgeSet
	seen := make(map[string]bool)
	ForEach(p, t, mask, func(e *Embedding) bool {
		k := e.Edges.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, e.Edges)
		}
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Count returns the number of embeddings of p in t, stopping at cap when
// cap > 0.
func Count(p, t *graph.Graph, mask *graph.EdgeSet, cap int) int {
	n := 0
	ForEach(p, t, mask, func(*Embedding) bool {
		n++
		return cap <= 0 || n < cap
	})
	return n
}

// MaxDisjointGreedy picks a maximal family of pairwise edge-disjoint sets
// greedily (smallest sets first), returning indices into sets. It is the
// cheap approximation of the paper's IN set used during feature mining; the
// PMI builder uses the exact max-weight-clique version instead.
func MaxDisjointGreedy(sets []graph.EdgeSet) []int {
	idx := make([]int, len(sets))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := sets[idx[a]].Count(), sets[idx[b]].Count()
		if ca != cb {
			return ca < cb
		}
		return idx[a] < idx[b]
	})
	var chosen []int
	for _, i := range idx {
		ok := true
		for _, j := range chosen {
			if sets[i].Intersects(sets[j]) {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, i)
		}
	}
	sort.Ints(chosen)
	return chosen
}
