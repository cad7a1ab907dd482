package graph

import (
	"bytes"
	"slices"
	"strconv"
	"sync"
)

// CanonicalCode returns a string that is identical for isomorphic graphs and
// distinct for non-isomorphic ones. It performs an exhaustive search over
// vertex orderings, pruned by iterative color refinement, so it is intended
// for the small graphs this system canonicalizes: mined features and relaxed
// queries (≲ 16 vertices). Isolated vertices participate like any others.
//
// The code is the lexicographically smallest row-major rendering of the
// labeled adjacency matrix together with the ordered vertex label sequence:
// per vertex, in order, its label, ':', then "j[label]" for each edge to the
// j-th earlier vertex, then ';'. Labels are written with '%', ':', ';', '['
// and ']' percent-escaped (as %25, %3A, %3B, %5B, %5D), so the delimiters
// are unambiguous and the code determines the graph; escaping leaves every
// label without those bytes as it is.
//
// The output bytes are frozen: feature.Mine orders and cuts its candidates
// by code, and the server keys its result cache by it, so any other
// canonical form — even another correct one — would move the mined index.
// The refinement's color strings, which decide the orderings tried, are
// frozen with them (canonical_oracle_test.go keeps the reference).
func CanonicalCode(g *Graph) string {
	if g.NumVertices() == 0 {
		return "∅"
	}
	c := canonPool.Get().(*canon)
	defer canonPool.Put(c)
	c.reset(g)
	c.refine()
	c.order()
	c.search(0)
	c.g = nil
	return string(c.best)
}

// Isomorphic reports whether g1 and g2 are isomorphic: it rejects on vertex
// and edge counts, vertex-label counts and edge-type multisets, and confirms
// by canonical codes.
func Isomorphic(g1, g2 *Graph) bool {
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() ||
		!slices.Equal(g1.vcount, g2.vcount) || !slices.Equal(g1.etypes, g2.etypes) {
		return false
	}
	return CanonicalCode(g1) == CanonicalCode(g2)
}

// canon is CanonicalCode's scratch, kept between calls by canonPool.
type canon struct {
	g *Graph
	n int
	// Refinement: cols are the vertices' colors, in colBuf, sigs the
	// round's vertex signatures, in sigBuf, and ents one vertex's
	// neighbour entries, in entBuf; at and entAt collect a buffer's
	// offsets. pre is the length of each color's fixed prefix, id the
	// round's ranks, ord the vertices by signature.
	colBuf, tmpBuf, sigBuf, entBuf []byte
	cols, sigs, ents               [][]byte
	at, entAt, pre, id, ord        []int32
	// Search: rank is the final color's rank, seq the vertices by rank and
	// first[d] where depth d's color class starts in seq; twin[v] is the
	// first vertex of v's class, in seq order, that is v's twin, or -1
	// when v has none (see order); edge[u*n+v] is the edge joining u and
	// v, or -1; perm the
	// ordering so far and buf its rendering, best the least complete
	// rendering yet (empty before the first: no complete rendering is).
	rank, seq, first, twin, edge, perm []int32
	used                               []bool
	buf, best                          []byte
}

var canonPool = sync.Pool{New: func() any { return new(canon) }}

// reset sizes c for g.
func (c *canon) reset(g *Graph) {
	n := len(g.vlabel)
	c.g, c.n = g, n
	c.cols, c.sigs, c.ents = resize(c.cols, n), resize(c.sigs, n), resize(c.ents, n)
	c.at, c.pre, c.id, c.ord = resize(c.at, n+1), resize(c.pre, n), resize(c.id, n), resize(c.ord, n)
	c.rank, c.seq, c.first, c.twin, c.perm = resize(c.rank, n), resize(c.seq, n), resize(c.first, n), resize(c.twin, n), resize(c.perm, n)
	c.used, c.edge = resize(c.used, n), resize(c.edge, n*n)
	clear(c.used)
	for i := range c.edge {
		c.edge[i] = -1
	}
	for id, e := range g.edges {
		c.edge[int(e.U)*n+int(e.V)], c.edge[int(e.V)*n+int(e.U)] = int32(id), int32(id)
	}
	c.buf, c.best = c.buf[:0], c.best[:0]
}

// resize returns s cut or grown to n elements, contents unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// split points out[i] at buf[at[i]:at[i+1]].
func split(out [][]byte, buf []byte, at []int32) {
	for i := range out {
		out[i] = buf[at[i]:at[i+1]]
	}
}

// sortBy fills ord with the vertices ordered by key, ties by vertex.
func sortBy(ord []int32, key [][]byte) {
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if d := bytes.Compare(key[a], key[b]); d != 0 {
			return d
		}
		return int(a - b)
	})
}

// refine computes a stable vertex coloring via iterative refinement
// (1-dimensional Weisfeiler-Leman over labels, degrees, incident edge
// labels). Equal final colors are a necessary condition for two vertices to
// be exchangeable by an automorphism.
//
// A vertex starts as "label/degree". Each round gives it the signature
// color + "(" + its sorted "edgelabel~neighbourcolor" entries joined by ","
// + ")", and then the color prefix#rank: prefix is the start color up to
// its first '#', rank that of the signature among the round's distinct
// signatures in byte order, which keeps colors isomorphism-invariant. The
// rounds stop once no rank changes, or after n.
func (c *canon) refine() {
	g, n := c.g, c.n
	c.colBuf, c.at[0] = c.colBuf[:0], 0
	for v := range n {
		start := len(c.colBuf)
		c.colBuf = append(c.colBuf, g.vlabel[v].Value()...)
		c.colBuf = append(c.colBuf, '/')
		c.colBuf = strconv.AppendInt(c.colBuf, int64(len(g.adj[v])), 10)
		c.at[v+1] = int32(len(c.colBuf))
		c.pre[v] = int32(len(c.colBuf) - start)
		if i := bytes.IndexByte(c.colBuf[start:], '#'); i >= 0 {
			c.pre[v] = int32(i)
		}
	}
	split(c.cols, c.colBuf, c.at)
	for round := 0; round < n; round++ {
		c.sigBuf = c.sigBuf[:0]
		for v := range n {
			c.sigBuf = append(c.sigBuf, c.cols[v]...)
			c.sigBuf = append(c.sigBuf, '(')
			c.sigBuf = c.appendEntries(c.sigBuf, v)
			c.sigBuf = append(c.sigBuf, ')')
			c.at[v+1] = int32(len(c.sigBuf))
		}
		split(c.sigs, c.sigBuf, c.at)
		sortBy(c.ord, c.sigs)
		changed := round == 0
		r := int32(-1)
		for i, v := range c.ord {
			if i == 0 || !bytes.Equal(c.sigs[v], c.sigs[c.ord[i-1]]) {
				r++
			}
			changed = changed || c.id[v] != r
			c.id[v] = r
		}
		c.tmpBuf = c.tmpBuf[:0]
		for v := range n {
			c.tmpBuf = append(c.tmpBuf, c.cols[v][:c.pre[v]]...)
			c.tmpBuf = append(c.tmpBuf, '#')
			c.tmpBuf = strconv.AppendInt(c.tmpBuf, int64(c.id[v]), 10)
			c.at[v+1] = int32(len(c.tmpBuf))
		}
		c.colBuf, c.tmpBuf = c.tmpBuf, c.colBuf
		split(c.cols, c.colBuf, c.at)
		if !changed {
			break
		}
	}
}

// appendEntries appends v's neighbour entries, edgelabel~color, sorted and
// joined by ','.
func (c *canon) appendEntries(b []byte, v int) []byte {
	adj := c.g.adj[v]
	c.entBuf, c.entAt = c.entBuf[:0], append(c.entAt[:0], 0)
	for _, h := range adj {
		c.entBuf = append(c.entBuf, c.g.edges[h.Edge].label.Value()...)
		c.entBuf = append(c.entBuf, '~')
		c.entBuf = append(c.entBuf, c.cols[h.To]...)
		c.entAt = append(c.entAt, int32(len(c.entBuf)))
	}
	ents := c.ents[:len(adj)]
	split(ents, c.entBuf, c.entAt)
	slices.SortFunc(ents, bytes.Compare)
	for i, e := range ents {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, e...)
	}
	return b
}

// order ranks the final colors in byte order and lays the vertices out by
// rank: an ordering the search tries places them class by class, ascending.
// It also groups each class into twins: vertices with the same label and
// the same labelled neighbourhood apart from each other. Swapping two
// twins is an automorphism, so twin is an equivalence, and each vertex
// with a twin points at its set's first member.
func (c *canon) order() {
	sortBy(c.seq, c.cols)
	for d, v := range c.seq {
		if d > 0 && bytes.Equal(c.cols[v], c.cols[c.seq[d-1]]) {
			c.rank[v], c.first[d] = c.rank[c.seq[d-1]], c.first[d-1]
		} else {
			c.rank[v], c.first[d] = int32(d), int32(d)
		}
		c.twin[v] = -1
		for _, w := range c.seq[c.first[d]:d] {
			if (c.twin[w] < 0 || c.twin[w] == w) && c.twins(v, w) {
				c.twin[v], c.twin[w] = w, w
				break
			}
		}
	}
}

// twins reports whether swapping v and w maps g onto itself.
func (c *canon) twins(v, w int32) bool {
	g := c.g
	if g.vlabel[v] != g.vlabel[w] {
		return false
	}
	rv, rw := c.edge[int(v)*c.n:][:c.n], c.edge[int(w)*c.n:][:c.n]
	for u := range rv {
		if ev, ew := rv[u], rw[u]; int32(u) != v && int32(u) != w && ev != ew &&
			(ev < 0 || ew < 0 || g.edges[ev].label != g.edges[ew].label) {
			return false
		}
	}
	return true
}

// search places a vertex of depth d's color class at position d in every
// way, rendering one segment per level and cutting a branch whose
// rendering already exceeds the best code's prefix. Of unused twins it
// places only the first: swapping two of them fixes the ordering so far
// and maps each one's completions onto the other's, renderings and all.
// The least complete rendering lands in best.
func (c *canon) search(d int) {
	if d == c.n {
		if len(c.best) == 0 || bytes.Compare(c.buf, c.best) < 0 {
			c.best = append(c.best[:0], c.buf...)
		}
		return
	}
	r := c.rank[c.seq[d]]
	for i := c.first[d]; i < int32(c.n) && c.rank[c.seq[i]] == r; i++ {
		v := c.seq[i]
		if c.used[v] || c.twin[v] >= 0 && c.twinPlaced(c.first[d], i) {
			continue
		}
		mark := len(c.buf)
		c.used[v], c.perm[d] = true, v
		c.segment(d, v)
		if !c.exceeds() {
			c.search(d + 1)
		}
		c.used[v], c.buf = false, c.buf[:mark]
	}
}

// twinPlaced reports whether an unused twin of seq[i] comes before it in
// seq[from:i], the part of its class this level has placed already.
func (c *canon) twinPlaced(from, i int32) bool {
	v := c.seq[i]
	for _, w := range c.seq[from:i] {
		if !c.used[w] && c.twin[w] == c.twin[v] {
			return true
		}
	}
	return false
}

// segment appends position d's rendering, with v placed there.
func (c *canon) segment(d int, v int32) {
	c.buf = appendLabel(c.buf, c.g.vlabel[v].Value())
	c.buf = append(c.buf, ':')
	row := c.edge[int(v)*c.n:]
	for j, u := range c.perm[:d] {
		if e := row[u]; e >= 0 {
			c.buf = strconv.AppendInt(c.buf, int64(j), 10)
			c.buf = append(c.buf, '[')
			c.buf = appendLabel(c.buf, c.g.edges[e].label.Value())
			c.buf = append(c.buf, ']')
		}
	}
	c.buf = append(c.buf, ';')
}

// exceeds reports whether every completion of buf renders above best: buf
// is above best's prefix, or extends all of best.
func (c *canon) exceeds() bool {
	if len(c.best) == 0 {
		return false
	}
	k := min(len(c.buf), len(c.best))
	cmp := bytes.Compare(c.buf[:k], c.best[:k])
	return cmp > 0 || cmp == 0 && len(c.buf) > len(c.best)
}

// appendLabel appends l to b with '%' and the code's delimiters escaped.
func appendLabel(b []byte, l Label) []byte {
	for i := 0; i < len(l); i++ {
		switch ch := l[i]; ch {
		case '%', ':', ';', '[', ']':
			b = append(b, '%', "0123456789ABCDEF"[ch>>4], "0123456789ABCDEF"[ch&15])
		default:
			b = append(b, ch)
		}
	}
	return b
}
