// Package iso implements subgraph isomorphism testing and embedding
// enumeration for labeled undirected graphs, in the style of VF2
// (Cordella/Foggia/Sansone/Vento, TPAMI 2004 — reference [10] of the paper)
// with a connectivity-aware static ordering and label/degree feasibility
// pruning.
//
// Before a matcher is built, every search counts the pattern's edges by
// type — edge label and endpoint labels, unordered — against the
// target's: each matched edge needs a target edge of its own type, so a
// pattern that would leave more edges unmatched than its budget allows is
// refused without a search (see feasible). Most failed confirmations end
// there.
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
// member of the relaxed query set. EdgeSetsWithin runs the same search to
// the end and collects, at each leaf, the edge sets the members embed on:
// the verification DNF of Equation 22 over all of U from one search. It
// finds a set exactly when ExistsWithin is true, so a query that will
// verify its candidates confirms them with EdgeSetsWithin and keeps the
// lists: one search per candidate. With no budget the matcher is the
// strict search, whose enumeration order is pinned by
// TestBudgetZeroKeepsEnumerationOrder.
//
// Labels are compared as handles: a graph holds each vertex's and edge's
// label interned (graph.Handle), one word that is equal across graphs
// exactly when the labels are, so the matcher compares the pattern's
// handles with the target's directly.
package iso

import (
	"slices"
	"sort"
	"sync"

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
	// A complete assignment is counted in found, and the search stops
	// when found reaches limit (never, for limit <= 0). Given visit (ForEach)
	// it is built in emb instead and handed to visit, which returns false
	// to stop. An enumeration (EdgeSets, EdgeSetsWithin) hands its leaves
	// to images.
	found, limit int
	emb          *Embedding
	visit        func() bool
	images       *imageSet
	stopped      bool
}

const (
	unplaced graph.VertexID = -1 // not decided yet
	skipped  graph.VertexID = -2 // left unmapped, all its edges given up
)

// newMatcher prepares a search of p in t. The static matching order is a
// BFS through each pattern component starting from the most constrained
// vertex (rarest label in t, then highest degree), so that all but
// component-initial vertices have a placed neighbor to anchor candidate
// generation on. The state lives in three slabs, taken from s.
func newMatcher(p, t *graph.Graph, mask *graph.EdgeSet, s *slabs) matcher {
	n, nt, ne := p.NumVertices(), t.NumVertices(), p.NumEdges()
	ids, ints, flags := s.take(n, nt, ne)
	m := matcher{p: p, t: t, mask: mask, order: ids[:0:n], pmap: ids[n:], tused: flags[:nt], dead: flags[nt+n:], paid: ints[n:]}
	placed := flags[nt : nt+n]
	rarity := ints[:n] // how often t carries each pattern vertex's label
	for v := range rarity {
		l := p.VertexHandle(graph.VertexID(v))
		for _, c := range t.LabelCounts() {
			if c.Label == l {
				rarity[v] = c.N
				break
			}
		}
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

// slabs keeps a matcher's state between searches: ids holds order and
// pmap, ints rarity and paid, flags tused, placed and dead.
type slabs struct {
	ids   []graph.VertexID
	ints  []int
	flags []bool
}

// take returns the slabs for a search of a pattern with n vertices and ne
// edges in a target with nt vertices, zeroed.
func (s *slabs) take(n, nt, ne int) ([]graph.VertexID, []int, []bool) {
	s.ids, s.ints, s.flags = resize(s.ids, 2*n), resize(s.ints, 2*n), resize(s.flags, nt+n+ne)
	return s.ids, s.ints, s.flags
}

// resize returns s cut or grown to n zeroed elements.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// feasible performs the cheap global pre-checks: with slack edges to spare,
// the pattern's edges must occur at least as often in the target, type by
// type, and in the strict search so must its vertices and vertex labels (a
// tolerant search may leave vertices unmapped). An edge's type is its label
// and its endpoints' labels; a matched pattern edge lands on a target edge
// of its own type, so at least Σ max(0, c_p − c_t) over types of the
// pattern's edges go unmatched, and a search refused for a sum above the
// slack could not have matched. That is never weaker than counting edge
// labels alone, of which types are a split. With a world mask the type
// check is skipped (counting masked types costs as much as matching).
func feasible(p, t *graph.Graph, mask *graph.EdgeSet, slack int, tolerant bool) bool {
	if p.NumEdges()-slack > t.NumEdges() {
		return false
	}
	if mask == nil && p.EdgeTypes().Deficit(t.EdgeTypes(), slack) > slack {
		return false
	}
	return tolerant || p.NumVertices() <= t.NumVertices() && t.LabelCounts().Covers(p.LabelCounts())
}

// edgeAlive reports whether target edge id exists under the world mask.
func (m *matcher) edgeAlive(id graph.EdgeID) bool {
	return m.mask == nil || m.mask.Contains(id)
}

// cost returns how many pattern edges from pv to already-mapped vertices
// find no live, equally labelled target edge when pv maps to tv, or -1 when
// tv cannot host pv: taken, differently labelled, or costlier than the
// slack. At slack 0 this is VF2's consistency check.
//
// A given-up edge from pv that tv would match also refuses tv: the branch
// that matched that edge when it anchored pv reaches the same vertex map,
// with the edge free for a deletion the leaf may still choose (see
// collect). So the tolerant search reaches each (deletion set, vertex map)
// on one path, and an enumeration counts it once.
func (m *matcher) cost(pv, tv graph.VertexID) int {
	if m.tused[tv] || m.p.VertexHandle(pv) != m.t.VertexHandle(tv) {
		return -1
	}
	if m.mask == nil && m.p.Degree(pv)-m.paid[pv]-m.slack > m.t.Degree(tv) {
		return -1 // more edges left to match than tv has, beyond the slack
	}
	c := 0
	for _, h := range m.p.Neighbors(pv) {
		w := m.pmap[h.To]
		if w < 0 {
			continue
		}
		_, match := m.matches(tv, w, h.Edge)
		switch {
		case m.dead[h.Edge] && match:
			return -1
		case !m.dead[h.Edge] && !match:
			if c++; c > m.slack {
				return -1
			}
		}
	}
	return c
}

// matches reports whether pattern edge pe finds a live, equally labelled
// target edge between a and b, and which.
func (m *matcher) matches(a, b graph.VertexID, pe graph.EdgeID) (graph.EdgeID, bool) {
	id, ok := m.t.EdgeBetween(a, b)
	return id, ok && m.edgeAlive(id) && m.t.EdgeHandle(id) == m.p.EdgeHandle(pe)
}

// stranded reports whether mapped vertex w is left with no matched edge and
// none still to decide once its edge e is given up. Every leaf below would
// then drop w from the member it embeds, and the search reaches that
// member's embeddings with w unmapped (see collect), so the tolerant search
// cuts the branch. Giving up is the only way w can get there: a vertex
// placed on an anchor has that edge matched, and after a component start
// the next vertex placed is anchored on it.
func (m *matcher) stranded(w graph.VertexID, e graph.EdgeID) bool {
	for _, h := range m.p.Neighbors(w) {
		if h.Edge == e || m.dead[h.Edge] {
			continue
		}
		switch y := m.pmap[h.To]; {
		case y == unplaced:
			return false
		case y >= 0:
			if _, ok := m.matches(m.pmap[w], y, h.Edge); ok {
				return false
			}
		}
	}
	return true
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
		switch {
		case m.images != nil:
			m.collect()
		case m.visit != nil:
			m.emit()
		default:
			m.found++
			m.stopped = m.found == m.limit
		}
		return
	}
	if anchored {
		// Either the edge to the mapped neighbor is matched — candidates
		// are the live neighbors of its image across an equally labelled
		// edge — or it is given up and pv waits for another anchor: no
		// candidate ever comes from a scan of t, whatever the slack.
		want := m.p.EdgeHandle(h.Edge)
		for _, th := range m.t.Neighbors(m.pmap[h.To]) {
			if !m.edgeAlive(th.Edge) || m.t.EdgeHandle(th.Edge) != want {
				continue
			}
			m.tryAssign(pv, th.To)
			if m.stopped {
				return
			}
		}
		if m.slack > 0 && !m.stranded(h.To, h.Edge) {
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

// emit builds the complete assignment in m.emb and hands it to visit.
func (m *matcher) emit() {
	copy(m.emb.VMap, m.pmap)
	m.emb.Edges.Clear()
	for id := range m.p.NumEdges() {
		e := m.p.Edge(graph.EdgeID(id))
		te, _ := m.t.EdgeBetween(m.pmap[e.U], m.pmap[e.V])
		m.emb.Edges.Add(te)
	}
	m.stopped = !m.visit()
}

// Exists reports whether pattern p is subgraph-isomorphic to target t,
// optionally restricted to the possible world mask (nil = certain graph).
func Exists(p, t *graph.Graph, mask *graph.EdgeSet) bool {
	return search(p, t, mask, 0, false, 1) > 0
}

// search counts the complete assignments of a search of p in t (under
// mask) with slack pattern edges to give up, stopping at limit (never, for
// limit <= 0), on pooled slabs.
func search(p, t *graph.Graph, mask *graph.EdgeSet, slack int, tolerant bool, limit int) int {
	if !feasible(p, t, mask, slack, tolerant) {
		return 0
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	m := newMatcher(p, t, mask, &sc.slabs)
	m.slack, m.tolerant, m.limit = slack, tolerant, limit
	m.extend()
	return m.found
}

// ExistsWithin reports whether p embeds in t (under mask) once at most
// delta of its edges are deleted and the vertices that leaves isolated are
// dropped: the paper's q ⊆sim t, dis(q, t) ≤ delta of Definition 8. By
// Lemma 1 that is "some rq of the relaxed set U(p, delta) embeds in t",
// answered by one search — VF2 with a budget of delta pattern edges it may
// give up (see extend) — instead of one per rq.
func ExistsWithin(p, t *graph.Graph, mask *graph.EdgeSet, delta int) bool {
	return search(p, t, mask, max(delta, 0), true, 1) > 0
}

// EdgeSetsWithin returns the distinct edge sets of t on which some member
// of the relaxed set U(p, delta) embeds — p with exactly delta edges
// deleted and the vertices that isolates dropped — capped at limit sets
// (limit <= 0 means all). That is the DNF of Equation 22 over all of U,
// from one search: ExistsWithin's, run to the end (see collect) instead of
// one EdgeSets per member. Isomorphic members embed on the same sets, so
// the result is the union of EdgeSets(rq, t, nil, 0) over U, whichever
// member of a class stands for it. Every set has |E(p)| − delta edges, so
// none absorbs another; delta ≥ |E(p)| yields the one empty set. The order
// of the sets is the search's and means nothing.
func EdgeSetsWithin(p, t *graph.Graph, delta, limit int) []graph.EdgeSet {
	delta = max(delta, 0)
	if delta >= p.NumEdges() {
		return []graph.EdgeSet{graph.NewEdgeSet(t.NumEdges())}
	}
	return edgeSets(p, t, nil, delta, true, limit)
}

// scratch is what one search needs beyond its result, kept per worker by
// scratchPool: the matcher's slabs, the image table EdgeSets and
// EdgeSetsWithin deduplicate on, and the embedding ForEach fills, its edge
// set over words.
type scratch struct {
	slabs  slabs
	images imageSet
	emb    Embedding
	words  []uint64
}

// embedding returns sc.emb sized for a pattern with n vertices in a target
// with ne edges.
func (sc *scratch) embedding(n, ne int) *Embedding {
	sc.words = resize(sc.words, (ne+63)/64)
	sc.emb = Embedding{VMap: resize(sc.emb.VMap, n), Edges: graph.EdgeSetOfWords(sc.words, ne)}
	return &sc.emb
}

var scratchPool = sync.Pool{New: func() any { return &scratch{images: imageSet{head: make(map[uint64]int32)}} }}

// edgeSets is search run to the end, collecting the distinct edge sets of
// its leaves (see collect) up to limit: EdgeSets at slack 0, strict,
// EdgeSetsWithin tolerant at slack delta.
func edgeSets(p, t *graph.Graph, mask *graph.EdgeSet, slack int, tolerant bool, limit int) []graph.EdgeSet {
	if !feasible(p, t, mask, slack, tolerant) {
		return nil
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	return sc.enumerate(p, t, mask, slack, tolerant, limit)
}

// enumerate is edgeSets past its check, in sc.
func (sc *scratch) enumerate(p, t *graph.Graph, mask *graph.EdgeSet, slack int, tolerant bool, limit int) []graph.EdgeSet {
	m := newMatcher(p, t, mask, &sc.slabs)
	m.slack, m.tolerant = slack, tolerant
	m.images = sc.images.reset(p.NumVertices(), t.NumEdges(), limit)
	m.extend()
	return m.images.sets()
}

// imageSet collects an enumeration's distinct edge sets as rows of one
// word slab, found again through a hash of their words — no string key
// per embedding — together with the state of the leaf being collected.
// The table is pooled with the scratch, so reset deletes the hashes the
// last enumeration inserted rather than clearing head: a map keeps the
// buckets it once grew to, and a clear costs that capacity, which the
// largest enumeration the scratch has seen set, on every small one after.
type imageSet struct {
	w, ne, limit int
	reached      int              // (deletion set, vertex map) pairs emitted
	rows         []uint64         // set i is rows[i*w : (i+1)*w]
	head         map[uint64]int32 // hash -> 1 + the last set with it
	next         []int32          // per set: 1 + the previous set with its hash, or 0
	hash         []uint64         // per set: its hash, a key of head
	img          []uint64         // the set being built
	edges        []matchedEdge    // the leaf's matched pattern edges
	hit, cut     []int            // per pattern vertex: its matched edges, and those chosen for deletion
}

// matchedEdge is a pattern edge between u and v and the target edge t it
// maps onto.
type matchedEdge struct {
	u, v graph.VertexID
	t    graph.EdgeID
}

// reset empties s for a search of a pattern with n vertices in a target
// with ne edges.
func (s *imageSet) reset(n, ne, limit int) *imageSet {
	s.w, s.ne, s.limit, s.reached = (ne+63)/64, ne, limit, 0
	for _, h := range s.hash {
		delete(s.head, h)
	}
	s.rows, s.next, s.hash = s.rows[:0], s.next[:0], s.hash[:0]
	s.img, s.hit, s.cut = resize(s.img, s.w), resize(s.hit, n), resize(s.cut, n)
	return s
}

// add records the set in img and reports whether it is new.
func (s *imageSet) add() bool {
	h := uint64(len(s.img))
	for _, w := range s.img {
		h = graph.Mix(h ^ w) // a bijection: one-word sets never share a hash
	}
	first := s.head[h]
	for i := first; i > 0; i = s.next[i-1] {
		if slices.Equal(s.rows[int(i-1)*s.w:int(i)*s.w], s.img) {
			return false
		}
	}
	s.rows = append(s.rows, s.img...)
	s.next = append(s.next, first)
	s.hash = append(s.hash, h)
	s.head[h] = int32(len(s.next))
	return true
}

// sets copies the collected sets out, into one slab of their own.
func (s *imageSet) sets() []graph.EdgeSet {
	if len(s.next) == 0 {
		return nil
	}
	words := slices.Clone(s.rows)
	out := make([]graph.EdgeSet, len(s.next))
	for i := range out {
		out[i] = graph.EdgeSetOfWords(words[i*s.w:], s.ne)
	}
	return out
}

// collect is an enumeration's leaf. Every pattern vertex is mapped or
// dropped; the matched edges are those between mapped vertices, not given
// up, that found their target edge (each mapped vertex has one, see
// stranded), and m.slack more edges may still go. Each choice of m.slack
// matched edges completes one deletion set of size delta, and the image of
// the other matched edges is an edge set a member of U embeds on. A choice
// that leaves a mapped vertex without a matched edge is passed over: that
// vertex is isolated in the member, and the search reaches the same
// embedding with it dropped. With cost's rule this counts every (deletion
// set, vertex map) pair once.
func (m *matcher) collect() {
	s := m.images
	s.edges = s.edges[:0]
	clear(s.hit)
	for id := range m.dead {
		e := m.p.Edge(graph.EdgeID(id))
		u, v := m.pmap[e.U], m.pmap[e.V]
		if m.dead[id] || u < 0 || v < 0 {
			continue
		}
		if t, ok := m.matches(u, v, graph.EdgeID(id)); ok {
			s.edges = append(s.edges, matchedEdge{e.U, e.V, t})
			s.hit[e.U]++
			s.hit[e.V]++
		}
	}
	clear(s.img)
	for _, e := range s.edges {
		s.img[e.t>>6] |= 1 << (uint(e.t) & 63)
	}
	m.choose(0, m.slack)
}

// choose deletes left more of the leaf's matched edges, from index from on,
// and records the image of what is left once none is left to delete.
func (m *matcher) choose(from, left int) {
	s := m.images
	if left == 0 {
		s.reached++
		if s.add() && len(s.next) == s.limit {
			m.stopped = true
		}
		return
	}
	for i := from; i <= len(s.edges)-left && !m.stopped; i++ {
		e := s.edges[i]
		if s.cut[e.u]+1 == s.hit[e.u] || s.cut[e.v]+1 == s.hit[e.v] {
			continue // would leave a mapped vertex isolated
		}
		bit := uint64(1) << (uint(e.t) & 63)
		s.cut[e.u]++
		s.cut[e.v]++
		s.img[e.t>>6] &^= bit
		m.choose(i+1, left-1)
		s.img[e.t>>6] |= bit
		s.cut[e.u]--
		s.cut[e.v]--
	}
}

// ForEach enumerates embeddings of p in t (under mask) and calls fn for each;
// fn returns false to stop early. Embeddings are produced per injective
// vertex mapping; callers that only care about edge sets should deduplicate
// (see EdgeSets). Every call of fn gets the same Embedding, refilled, so
// fn must copy what it keeps.
func ForEach(p, t *graph.Graph, mask *graph.EdgeSet, fn func(*Embedding) bool) {
	if !feasible(p, t, mask, 0, false) {
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	m := newMatcher(p, t, mask, &sc.slabs)
	// fn gets em from this closure, not from m: a pointer read out of m
	// and passed to fn would make the compiler move every mask handed to
	// a search to the heap.
	em := sc.embedding(p.NumVertices(), t.NumEdges())
	m.emb, m.visit = em, func() bool { return fn(em) }
	m.extend()
}

// FindAll returns up to limit embeddings of p in t (limit <= 0 means all).
func FindAll(p, t *graph.Graph, mask *graph.EdgeSet, limit int) []Embedding {
	var out []Embedding
	ForEach(p, t, mask, func(e *Embedding) bool {
		out = append(out, Embedding{VMap: slices.Clone(e.VMap), Edges: e.Edges.Clone()})
		return limit <= 0 || len(out) < limit
	})
	return out
}

// EdgeSets returns the distinct edge sets of embeddings of p in t, capped at
// limit distinct sets (limit <= 0 means all). This is the set Ef of the
// paper's Section 4.1: probabilistic events only depend on which target
// edges an embedding occupies. It is EdgeSetsWithin's enumeration with no
// budget — the strict search, collecting at each leaf — so the sets come
// in the order ForEach first reaches them, deduplicated on the pooled image
// table, and a warmed call allocates only its result.
func EdgeSets(p, t *graph.Graph, mask *graph.EdgeSet, limit int) []graph.EdgeSet {
	return edgeSets(p, t, mask, 0, false, limit)
}

// Count returns the number of embeddings of p in t, stopping at cap when
// cap > 0: ForEach's enumeration, counted without building embeddings.
func Count(p, t *graph.Graph, mask *graph.EdgeSet, cap int) int {
	return search(p, t, mask, 0, false, cap)
}

// MaxDisjointGreedy picks a maximal family of pairwise edge-disjoint sets
// greedily (smallest sets first), returning indices into sets. It is the
// cheap approximation of the paper's IN set used during feature mining.
// The PMI builder reads no IN set: it computes each cell from the union of
// the feature's embeddings, exactly within its budget.
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
