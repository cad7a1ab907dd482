package graph

// The implementation of CanonicalCode before its refinement and search
// stopped building strings with fmt and maps, kept verbatim (but for the
// names) as the reference the new one is held to byte for byte: on labels
// free of the bytes CanonicalCode escapes, the two must agree exactly,
// because mined-feature order and cache keys are made of these bytes.

import (
	"fmt"
	"sort"
	"strings"
)

// canonicalCodeOracle returns a string that is identical for isomorphic graphs and
// distinct for non-isomorphic ones. It performs an exhaustive search over
// vertex orderings, pruned by iterative color refinement, so it is intended
// for the small graphs this system canonicalizes: mined features and relaxed
// queries (≲ 16 vertices). Isolated vertices participate like any others.
//
// The code is the lexicographically smallest row-major rendering of the
// labeled adjacency matrix together with the ordered vertex label sequence.
func canonicalCodeOracle(g *Graph) string {
	n := g.NumVertices()
	if n == 0 {
		return "∅"
	}
	colors := refineOracle(g)

	// Group vertices by refined color; orderings only permute within groups
	// that share a color, which prunes the factorial search dramatically.
	c := &canonSearchOracle{g: g, colors: colors, perm: make([]VertexID, 0, n), used: make([]bool, n)}
	c.search()
	return c.best
}

// refineOracle computes a stable vertex coloring via iterative refinement
// (1-dimensional Weisfeiler-Leman over labels, degrees, incident edge
// labels). Equal final colors are a necessary condition for two vertices to
// be exchangeable by an automorphism.
func refineOracle(g *Graph) []string {
	n := g.NumVertices()
	colors := make([]string, n)
	for v := 0; v < n; v++ {
		colors[v] = fmt.Sprintf("%s/%d", g.VertexLabel(VertexID(v)), g.Degree(VertexID(v)))
	}
	next := make([]string, n)
	for round := 0; round < n; round++ {
		changed := false
		for v := 0; v < n; v++ {
			nb := make([]string, 0, g.Degree(VertexID(v)))
			for _, h := range g.Neighbors(VertexID(v)) {
				nb = append(nb, string(g.EdgeLabel(h.Edge))+"~"+colors[h.To])
			}
			sort.Strings(nb)
			next[v] = colors[v] + "(" + strings.Join(nb, ",") + ")"
		}
		// Compress to small ids to keep strings from growing unboundedly.
		// Ids are ranks of the sorted distinct color strings, which keeps
		// them isomorphism-invariant (a vertex-order-dependent numbering
		// would break permutation invariance of the final code).
		distinct := make([]string, 0, n)
		seen := make(map[string]bool, n)
		for v := 0; v < n; v++ {
			if !seen[next[v]] {
				seen[next[v]] = true
				distinct = append(distinct, next[v])
			}
		}
		sort.Strings(distinct)
		ids := make(map[string]int, len(distinct))
		for i, s := range distinct {
			ids[s] = i
		}
		for v := 0; v < n; v++ {
			nc := fmt.Sprintf("%s#%d", colors[v][:strings.IndexByte(colors[v]+"#", '#')], ids[next[v]])
			if nc != colors[v] {
				changed = true
			}
			colors[v] = nc
		}
		if !changed {
			break
		}
	}
	return colors
}

type canonSearchOracle struct {
	g      *Graph
	colors []string
	perm   []VertexID
	used   []bool
	best   string
}

func (c *canonSearchOracle) search() {
	n := c.g.NumVertices()
	if len(c.perm) == n {
		code := c.render()
		if c.best == "" || code < c.best {
			c.best = code
		}
		return
	}
	// Candidates for the next position: among unused vertices, only the ones
	// with the lexicographically smallest refined color need to be tried at
	// ties; vertices of different colors are not exchangeable, but we must
	// still explore color classes in all orders consistent with minimality.
	// We conservatively try every unused vertex whose color is minimal among
	// unused, plus — to stay exact even when refinement is too coarse — any
	// vertex sharing that minimal color.
	minColor := ""
	for v := 0; v < n; v++ {
		if c.used[v] {
			continue
		}
		if minColor == "" || c.colors[v] < minColor {
			minColor = c.colors[v]
		}
	}
	// Prefix pruning: if the partial rendering already exceeds best, stop.
	if c.best != "" {
		partial := c.render()
		if len(partial) <= len(c.best) && partial > c.best[:len(partial)] {
			return
		}
	}
	for v := 0; v < n; v++ {
		if c.used[v] || c.colors[v] != minColor {
			continue
		}
		c.used[v] = true
		c.perm = append(c.perm, VertexID(v))
		c.search()
		c.perm = c.perm[:len(c.perm)-1]
		c.used[v] = false
	}
}

// render produces the code of the current (possibly partial) permutation:
// the vertex labels in order, then for each vertex the labeled edges to
// earlier vertices.
func (c *canonSearchOracle) render() string {
	var sb strings.Builder
	for i, v := range c.perm {
		sb.WriteString(string(c.g.VertexLabel(v)))
		sb.WriteByte(':')
		for j := 0; j < i; j++ {
			if id, ok := c.g.EdgeBetween(c.perm[j], v); ok {
				fmt.Fprintf(&sb, "%d[%s]", j, c.g.EdgeLabel(id))
			}
		}
		sb.WriteByte(';')
	}
	return sb.String()
}
