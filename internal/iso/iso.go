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
//
// The same matcher answers the paper's similarity question (Definition 8,
// dis(q, t) ≤ δ) when given a budget of δ pattern edges it may leave
// unmatched: ExistsWithin. Tolerant matching under an edit budget is the
// shape of arXiv:1512.05256; here the budget replaces one strict search per
// member of the relaxed query set. With no budget the matcher is the strict
// search, whose enumeration order is a contract: the order of EdgeSets picks
// the sampler's clauses and the summation order of inclusion–exclusion
// (pinned by TestBudgetZeroKeepsEnumerationOrder).
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
	p, t  *graph.Graph
	mask  *graph.EdgeSet
	order []graph.VertexID // pattern vertices in matching order
	pmap  []graph.VertexID // pattern -> target; unplaced or skipped when negative
	tused []bool
	// The tolerant search gives up pattern edges: dead marks the ones given
	// up one by one, a skipped vertex gives up all of its own, paid counts
	// per vertex how many are gone either way, slack how many more may go.
	// The strict search of Exists/ForEach has slack 0 and is not tolerant:
	// it gives up nothing and places every vertex.
	dead     []bool
	paid     []int
	slack    int
	tolerant bool
	// yield receives each embedding; nil stops at the first complete
	// assignment without building one (stopped then reads "found").
	yield   func(*Embedding) bool
	stopped bool
}

const (
	unplaced graph.VertexID = -1 // not decided yet
	skipped  graph.VertexID = -2 // left unmapped, all its edges given up
)

// newMatcher prepares a search of p in t. The static matching order is a
// BFS through each pattern component starting from the most constrained
// vertex (rarest label in t, then highest degree), so that all but
// component-initial vertices have a placed neighbor to anchor candidate
// generation on. The state is allocated once per search, as three slabs.
func newMatcher(p, t *graph.Graph, mask *graph.EdgeSet) matcher {
	n, nt := p.NumVertices(), t.NumVertices()
	ids := make([]graph.VertexID, 2*n)       // order, pmap
	ints := make([]int, 2*n)                 // rarity, paid
	flags := make([]bool, nt+n+p.NumEdges()) // tused, placed, dead
	m := matcher{p: p, t: t, mask: mask, order: ids[:0:n], pmap: ids[n:], tused: flags[:nt], dead: flags[nt+n:], paid: ints[n:]}
	placed := flags[nt : nt+n]
	rarity := ints[:n] // how often t carries each pattern vertex's label
	tLabelCount, _ := t.LabelCounts()
	for v := range rarity {
		rarity[v] = tLabelCount.Of(p.VertexLabel(graph.VertexID(v)))
		m.pmap[v] = unplaced
	}
	for len(m.order) < n {
		// Pick the best unplaced vertex preferring attachment to the placed
		// prefix, then rare target label, then high degree.
		best := graph.VertexID(-1)
		bestKey := [3]int{1 << 30, 1 << 30, 1 << 30}
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			attached := 1
			for _, h := range p.Neighbors(graph.VertexID(v)) {
				if placed[h.To] {
					attached = 0
					break
				}
			}
			key := [3]int{attached, rarity[v], -p.Degree(graph.VertexID(v))}
			if key[0] < bestKey[0] || (key[0] == bestKey[0] && (key[1] < bestKey[1] || (key[1] == bestKey[1] && key[2] < bestKey[2]))) {
				best, bestKey = graph.VertexID(v), key
			}
		}
		placed[best] = true
		m.order = append(m.order, best)
	}
	return m
}

// feasible performs the cheap global pre-checks: with slack edges to spare,
// the pattern's edges and edge labels must occur at least as often in the
// target, and in the strict search so must its vertices and vertex labels
// (a tolerant search may leave vertices unmapped). With a world mask the
// edge-label check is skipped (counting masked labels costs as much as
// matching).
func feasible(p, t *graph.Graph, mask *graph.EdgeSet, slack int, tolerant bool) bool {
	if p.NumEdges()-slack > t.NumEdges() {
		return false
	}
	pv, pe := p.LabelCounts()
	tv, te := t.LabelCounts()
	if !tolerant && (p.NumVertices() > t.NumVertices() || !tv.Covers(pv)) {
		return false
	}
	if mask != nil {
		return true
	}
	for _, c := range pe {
		if slack -= max(0, c.N-te.Of(c.Label)); slack < 0 {
			return false
		}
	}
	return true
}

// edgeAlive reports whether target edge id exists under the world mask.
func (m *matcher) edgeAlive(id graph.EdgeID) bool {
	return m.mask == nil || m.mask.Contains(id)
}

// cost returns how many pattern edges from pv to already-mapped vertices
// find no live, equally labelled target edge when pv maps to tv, or -1 when
// tv cannot host pv: taken, differently labelled, or costlier than the
// slack. At slack 0 this is VF2's consistency check.
func (m *matcher) cost(pv, tv graph.VertexID) int {
	if m.tused[tv] || m.p.VertexLabel(pv) != m.t.VertexLabel(tv) {
		return -1
	}
	if m.mask == nil && m.p.Degree(pv)-m.paid[pv]-m.slack > m.t.Degree(tv) {
		return -1 // more edges left to match than tv has, beyond the slack
	}
	c := 0
	for _, h := range m.p.Neighbors(pv) {
		w := m.pmap[h.To]
		if w < 0 || m.dead[h.Edge] {
			continue
		}
		id, ok := m.t.EdgeBetween(tv, w)
		if !ok || !m.edgeAlive(id) || m.t.EdgeLabel(id) != m.p.EdgeLabel(h.Edge) {
			if c++; c > m.slack {
				return -1
			}
		}
	}
	return c
}

// next picks the pattern vertex to place: the first undecided one, in
// matching order, that an edge h not given up joins to a mapped vertex
// (anchored); failing that the first that needs an image at all — any
// undecided vertex in the strict search, one that still has an edge in the
// tolerant one, which drops the rest as isolated. In the strict search
// that is the matching order itself, with its anchors. ok is false when
// nothing is left to place.
func (m *matcher) next() (pv graph.VertexID, h graph.HalfEdge, anchored, ok bool) {
	for _, v := range m.order {
		if m.pmap[v] != unplaced {
			continue
		}
		if !ok && (!m.tolerant || m.paid[v] < m.p.Degree(v)) {
			pv, ok = v, true
		}
		for _, h := range m.p.Neighbors(v) {
			if m.pmap[h.To] >= 0 && !m.dead[h.Edge] {
				return v, h, true, true
			}
		}
	}
	return pv, h, false, ok
}

// giveUp marks the pattern edge e between u and v as unmatched (d = 1) or
// takes the mark back (d = -1).
func (m *matcher) giveUp(e graph.EdgeID, u, v graph.VertexID, d int) {
	m.dead[e] = d > 0
	m.paid[u] += d
	m.paid[v] += d
	m.slack -= d
}

func (m *matcher) extend() {
	if m.stopped {
		return
	}
	pv, h, anchored, ok := m.next()
	if !ok {
		if m.yield == nil {
			m.stopped = true
		} else {
			m.emit()
		}
		return
	}
	if anchored {
		// Either the edge to the mapped neighbor is matched — candidates
		// are the live neighbors of its image across an equally labelled
		// edge — or it is given up and pv waits for another anchor: no
		// candidate ever comes from a scan of t, whatever the slack.
		want := m.p.EdgeLabel(h.Edge)
		for _, th := range m.t.Neighbors(m.pmap[h.To]) {
			if !m.edgeAlive(th.Edge) || m.t.EdgeLabel(th.Edge) != want {
				continue
			}
			m.tryAssign(pv, th.To)
			if m.stopped {
				return
			}
		}
		if m.slack > 0 {
			m.giveUp(h.Edge, pv, h.To, 1)
			m.extend()
			m.giveUp(h.Edge, pv, h.To, -1)
		}
		return
	}
	// Component-initial vertex: try every unused target vertex.
	for tv := 0; tv < m.t.NumVertices(); tv++ {
		m.tryAssign(pv, graph.VertexID(tv))
		if m.stopped {
			return
		}
	}
	// Or leave it unmapped, giving up the edges it still has. None of them
	// leads to a mapped vertex, so only the far ends' counts change.
	if left := m.p.Degree(pv) - m.paid[pv]; m.tolerant && left <= m.slack {
		m.skip(pv, left, 1)
		m.extend()
		m.skip(pv, left, -1)
	}
}

// skip leaves pv unmapped (d = 1) or undoes that (d = -1), charging the
// left edges pv still has to the slack and to their far ends.
func (m *matcher) skip(pv graph.VertexID, left, d int) {
	for _, h := range m.p.Neighbors(pv) {
		if !m.dead[h.Edge] && m.pmap[h.To] != skipped {
			m.paid[h.To] += d
		}
	}
	m.slack -= d * left
	m.pmap[pv] = unplaced
	if d > 0 {
		m.pmap[pv] = skipped
	}
}

func (m *matcher) tryAssign(pv, tv graph.VertexID) {
	c := m.cost(pv, tv)
	if c < 0 {
		return
	}
	m.pmap[pv] = tv
	m.tused[tv] = true
	m.slack -= c
	m.extend()
	m.slack += c
	m.pmap[pv] = unplaced
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
	if !feasible(p, t, mask, 0, false) {
		return false
	}
	m := newMatcher(p, t, mask)
	m.extend()
	return m.stopped
}

// ExistsWithin reports whether p embeds in t (under mask) once at most
// delta of its edges are deleted and the vertices that leaves isolated are
// dropped: the paper's q ⊆sim t, dis(q, t) ≤ delta of Definition 8. By
// Lemma 1 that is "some rq of the relaxed set U(p, delta) embeds in t",
// answered by one search — VF2 with a budget of delta pattern edges it may
// give up (see extend) — instead of one per rq.
func ExistsWithin(p, t *graph.Graph, mask *graph.EdgeSet, delta int) bool {
	delta = max(delta, 0)
	if !feasible(p, t, mask, delta, true) {
		return false
	}
	m := newMatcher(p, t, mask)
	m.slack, m.tolerant = delta, true
	m.extend()
	return m.stopped
}

// ForEach enumerates embeddings of p in t (under mask) and calls fn for each;
// fn returns false to stop early. Embeddings are produced per injective
// vertex mapping; callers that only care about edge sets should deduplicate
// (see EdgeSets).
func ForEach(p, t *graph.Graph, mask *graph.EdgeSet, fn func(*Embedding) bool) {
	if !feasible(p, t, mask, 0, false) {
		return
	}
	m := newMatcher(p, t, mask)
	m.yield = fn
	m.extend()
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
