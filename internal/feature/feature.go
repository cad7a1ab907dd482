// Package feature mines the frequent, discriminative subgraph features that
// populate the probabilistic matrix index (paper §4.2, Algorithm 4).
//
// Selection follows the paper's two rules — prefer features with many
// disjoint embeddings (they give large |IN| / |IN′| families and therefore
// tight SIP bounds) and prefer small features — implemented through four
// knobs:
//
//	α     minimum ratio of disjoint embeddings among all embeddings for a
//	      graph to count toward a feature's frequency
//	β     minimum frequency frq(f) = |{g : f ⊆iso gc, |IN|/|Ef| ≥ α}| / |D|
//	γ     discriminative shrink: keep f only when its support is at least a
//	      γ fraction smaller than the intersection of its indexed
//	      sub-features' supports, |Df| ≤ (1−γ)·|∩ Df′|
//	maxL  maximum feature size (vertices)
//
// Mining is level-wise pattern growth: level-1 features are the distinct
// labeled edges; each level extends embeddings by one adjacent edge, with
// canonical-code deduplication and anti-monotone support pruning (a
// candidate's support is a subset of its parent's).
package feature

import (
	"sort"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
)

// Options controls mining. Zero values select the defaults (the paper's
// default parameter setting is α=β=γ=0.15, maxL=150; our scaled default
// keeps the thresholds and bounds feature size by vertices).
type Options struct {
	Alpha float64 // disjoint-embedding ratio threshold (default 0.15; negative = 0)
	Beta  float64 // frequency threshold (default 0.15; negative = 0)
	Gamma float64 // discriminative threshold (default 0.15; negative = 0)
	MaxL  int     // max feature vertices (default 10)

	MaxFeatures           int // cap on |F| (default 256)
	MaxEmbeddingsPerGraph int // cap on |Ef| when computing ratios (default 64)
	MaxCandidatesPerLevel int // growth cap (default 2048)
}

func (o Options) withDefaults() Options {
	// Zero selects the default; negative selects an explicit zero (off).
	switch {
	case o.Alpha < 0:
		o.Alpha = 0
	case o.Alpha == 0:
		o.Alpha = 0.15
	}
	switch {
	case o.Beta < 0:
		o.Beta = 0
	case o.Beta == 0:
		o.Beta = 0.15
	}
	switch {
	case o.Gamma < 0:
		o.Gamma = 0
	case o.Gamma == 0:
		o.Gamma = 0.15
	}
	if o.MaxL == 0 {
		o.MaxL = 10
	}
	if o.MaxFeatures == 0 {
		o.MaxFeatures = 256
	}
	if o.MaxEmbeddingsPerGraph == 0 {
		o.MaxEmbeddingsPerGraph = 64
	}
	if o.MaxCandidatesPerLevel == 0 {
		o.MaxCandidatesPerLevel = 2048
	}
	return o
}

// Feature is a mined pattern with its database support.
type Feature struct {
	G       *graph.Graph
	Code    string // canonical code of G; snapshots re-derive it
	Support []int  // indices of graphs whose certain graph contains G
}

// Mine extracts features from the certain graphs dbc.
func Mine(dbc []*graph.Graph, opt Options) []*Feature {
	opt = opt.withDefaults()
	if len(dbc) == 0 {
		return nil
	}
	minSupport := int(opt.Beta * float64(len(dbc)))
	if minSupport < 1 {
		minSupport = 1
	}

	var out []*Feature
	supportOf := make(map[string][]int) // code -> support (for dis())

	level := mineSingleEdges(dbc)
	for len(level) > 0 && len(out) < opt.MaxFeatures {
		var next []*candidate
		seen := make(map[string]bool)
		for _, c := range level {
			if len(out) >= opt.MaxFeatures {
				break
			}
			// Frequency with the α disjoint-ratio qualification.
			qualified := 0
			for _, gi := range c.support {
				if disjointRatioOK(c.g, dbc[gi], opt) {
					qualified++
				}
			}
			if qualified < minSupport {
				continue
			}
			// Discriminative check against already indexed sub-features.
			if !discriminativeOK(c, out, opt.Gamma) {
				continue
			}
			f := &Feature{G: c.g, Code: c.code, Support: c.support}
			out = append(out, f)
			supportOf[c.code] = c.support

			// Grow.
			if c.g.NumVertices() >= opt.MaxL {
				continue
			}
			for _, ext := range extend(c, dbc, opt) {
				if seen[ext.code] || len(next) >= opt.MaxCandidatesPerLevel {
					continue
				}
				if len(ext.support) < minSupport {
					continue
				}
				seen[ext.code] = true
				next = append(next, ext)
			}
		}
		level = next
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].G.NumEdges() != out[j].G.NumEdges() {
			return out[i].G.NumEdges() < out[j].G.NumEdges()
		}
		return out[i].Code < out[j].Code
	})
	return out
}

type candidate struct {
	g       *graph.Graph
	code    string
	support []int
}

// mineSingleEdges builds the level-1 candidates: one per distinct labeled
// edge triple (uLabel, edgeLabel, vLabel).
func mineSingleEdges(dbc []*graph.Graph) []*candidate {
	type triple struct{ a, e, b graph.Label }
	supp := make(map[triple][]int)
	for gi, g := range dbc {
		local := make(map[triple]bool)
		for _, ed := range g.Edges() {
			la, lb := g.VertexLabel(ed.U), g.VertexLabel(ed.V)
			if la > lb {
				la, lb = lb, la
			}
			local[triple{la, ed.Label, lb}] = true
		}
		for tr := range local {
			supp[tr] = append(supp[tr], gi)
		}
	}
	var out []*candidate
	for tr, s := range supp {
		b := graph.NewBuilder("f")
		u := b.AddVertex(tr.a)
		v := b.AddVertex(tr.b)
		b.MustAddEdge(u, v, tr.e)
		g := b.Build()
		sort.Ints(s)
		out = append(out, &candidate{g: g, code: graph.CanonicalCode(g), support: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].code < out[j].code })
	return out
}

// disjointRatioOK computes |IN| / |Ef| ≥ α for feature f in graph g, with
// Ef capped and IN greedy (the exact clique version is reserved for the PMI
// builder where tightness matters).
func disjointRatioOK(f, g *graph.Graph, opt Options) bool {
	sets := iso.EdgeSets(f, g, nil, opt.MaxEmbeddingsPerGraph)
	if len(sets) == 0 {
		return false
	}
	in := iso.MaxDisjointGreedy(sets)
	return float64(len(in))/float64(len(sets)) >= opt.Alpha
}

// discriminativeOK implements the paper's dis(f) criterion in its usable
// (gIndex-style) form. Read literally, dis(f) = |∩{Df′ : f′ ⊆iso f}| / |Df|
// is always exactly 1 when f′ ranges over sub-features including f (every
// graph containing f contains each f′), so a threshold in the paper's
// sweep range [0.05, 0.25] would never prune — yet the paper's Figure 12d
// shows the index shrinking as γ grows. We therefore keep a feature only
// when its support shrinks by at least a γ fraction relative to what its
// indexed sub-features already predict:
//
//	|Df| ≤ (1 − γ)·|∩ {Df′ : f′ ⊊ f, f′ ∈ F}|
//
// which matches gIndex's discriminative-fragment intent and reproduces the
// decreasing index-size trend. Features with no indexed sub-feature are
// trivially discriminative.
func discriminativeOK(c *candidate, indexed []*Feature, gamma float64) bool {
	if len(c.support) == 0 {
		return false
	}
	var inter map[int]bool
	for _, f := range indexed {
		if f.G.NumEdges() >= c.g.NumEdges() {
			continue
		}
		if !iso.Exists(f.G, c.g, nil) {
			continue
		}
		if inter == nil {
			inter = make(map[int]bool, len(f.Support))
			for _, gi := range f.Support {
				inter[gi] = true
			}
			continue
		}
		keep := make(map[int]bool, len(inter))
		for _, gi := range f.Support {
			if inter[gi] {
				keep[gi] = true
			}
		}
		inter = keep
	}
	if inter == nil {
		return true
	}
	return float64(len(c.support)) <= (1-gamma)*float64(len(inter))
}

// extend grows a candidate by one edge using its embeddings in supporting
// graphs; support is computed exactly (iso test over the parent support).
func extend(c *candidate, dbc []*graph.Graph, opt Options) []*candidate {
	type ext struct {
		g    *graph.Graph
		code string
	}
	candidates := make(map[string]*ext)
	// Derive extension shapes from a few supporting graphs' embeddings.
	samples := c.support
	if len(samples) > 8 {
		samples = samples[:8]
	}
	for _, gi := range samples {
		g := dbc[gi]
		embs := iso.FindAll(c.g, g, nil, 8)
		for _, em := range embs {
			inImage := make(map[graph.VertexID]graph.VertexID, len(em.VMap)) // target -> pattern
			for pv, tv := range em.VMap {
				inImage[tv] = graph.VertexID(pv)
			}
			for pv, tv := range em.VMap {
				for _, h := range g.Neighbors(tv) {
					if em.Edges.Contains(h.Edge) {
						continue
					}
					ng := buildExtension(c.g, graph.VertexID(pv), inImage, g, h)
					if ng == nil {
						continue
					}
					code := graph.CanonicalCode(ng)
					if _, ok := candidates[code]; !ok {
						candidates[code] = &ext{g: ng, code: code}
					}
				}
			}
		}
	}
	var out []*candidate
	for _, e := range candidates {
		supp := make([]int, 0, len(c.support))
		for _, gi := range c.support {
			if iso.Exists(e.g, dbc[gi], nil) {
				supp = append(supp, gi)
			}
		}
		out = append(out, &candidate{g: e.g, code: e.code, support: supp})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].code < out[j].code })
	return out
}

// buildExtension adds to pattern p the target edge h leaving the image of
// pattern vertex pv: either a back-edge to another mapped vertex or a fresh
// pendant vertex carrying the target's labels.
func buildExtension(p *graph.Graph, pv graph.VertexID, inImage map[graph.VertexID]graph.VertexID, g *graph.Graph, h graph.HalfEdge) *graph.Graph {
	b := graph.NewBuilder("f")
	for v := 0; v < p.NumVertices(); v++ {
		b.AddVertex(p.VertexLabel(graph.VertexID(v)))
	}
	for _, e := range p.Edges() {
		b.MustAddEdge(e.U, e.V, e.Label)
	}
	lbl := g.EdgeLabel(h.Edge)
	if opv, mapped := inImage[h.To]; mapped {
		// Back edge within the pattern (may already exist -> reject).
		if _, err := b.AddEdge(pv, opv, lbl); err != nil {
			return nil
		}
	} else {
		nv := b.AddVertex(g.VertexLabel(h.To))
		b.MustAddEdge(pv, nv, lbl)
	}
	return b.Build()
}
