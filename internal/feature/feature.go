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
// Two more options cap the search, MaxFeatures (|F|) and
// MaxCandidatesPerLevel; the embeddings enumerated per (candidate, graph)
// for the α ratio are capped by a constant, maxEmbeddingsPerGraph.
//
// Mining is level-wise pattern growth: level-1 candidates are the distinct
// labeled edges, and every level-k candidate has k edges. Each level runs
// five phases, the parallel ones on the shared pool (GOMAXPROCS workers,
// each writing only its own slot), so the result is the serial
// algorithm's, bitwise, at any worker count:
//
//  1. Qualify, in parallel: the α-frequency and discriminative rules for
//     each candidate. The latter reads only features with fewer edges, so
//     the features accepted before the level are all it can see.
//  2. Accept, serially in level order, up to MaxFeatures.
//  3. Extension shapes, in parallel, one task per accepted parent below
//     maxL: the one-edge extensions, one graph per canonical code. A shape
//     (pattern vertex, other endpoint, labels) already built is skipped
//     before it is built or coded.
//  4. Support, in parallel, once per distinct code of the level: the graphs
//     of its smallest producer's support that contain it. A child contains
//     every parent, so this is its exact support whichever parent it is
//     filtered from.
//  5. Merge, serially: parents in order, codes ascending within a parent,
//     first occurrence kept, the first MaxCandidatesPerLevel codes with
//     support ≥ β·|D| form the next level.
//
// Mining is not complete: extension shapes come from the first 8
// supporting graphs' first 8 embeddings of each parent, so an extension
// present only elsewhere in the database is never generated. The supports
// of the features that are generated are exact.
package feature

import (
	"context"
	"sort"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/pool"
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
	MaxCandidatesPerLevel int // growth cap (default 2048)
}

// maxEmbeddingsPerGraph caps |Ef| when computing the α ratio |IN|/|Ef|.
const maxEmbeddingsPerGraph = 64

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
	if o.MaxCandidatesPerLevel == 0 {
		o.MaxCandidatesPerLevel = 2048
	}
	return o
}

// Feature is a mined pattern with its database support.
type Feature struct {
	G       *graph.Graph
	Support []int // indices of graphs whose certain graph contains G
}

// Mine extracts features from the certain graphs dbc. Each level runs the
// five phases of the package doc; the parallel ones run on GOMAXPROCS
// workers and write only per-index slots, so the features are the same,
// bitwise, at any worker count.
func Mine(dbc []*graph.Graph, opt Options) []*Feature {
	opt = opt.withDefaults()
	if len(dbc) == 0 {
		return nil
	}
	minSupport := int(opt.Beta * float64(len(dbc)))
	if minSupport < 1 {
		minSupport = 1
	}

	var accepted []*candidate
	level := mineSingleEdges(dbc)
	for len(level) > 0 && len(accepted) < opt.MaxFeatures {
		// 1. Qualify against the features accepted before this level.
		indexed := accepted
		ok := make([]bool, len(level))
		forEach(len(level), func(i int) {
			ok[i] = qualifies(level[i], dbc, indexed, minSupport, opt)
		})
		// 2. Accept, in level order, up to MaxFeatures.
		var parents []*candidate
		for i, c := range level {
			if len(accepted) >= opt.MaxFeatures {
				break
			}
			if !ok[i] {
				continue
			}
			accepted = append(accepted, c)
			if c.g.NumVertices() < opt.MaxL {
				parents = append(parents, c)
			}
		}
		if len(accepted) >= opt.MaxFeatures {
			break
		}
		level = grow(parents, dbc, minSupport, opt)
	}
	sort.Slice(accepted, func(i, j int) bool {
		if accepted[i].g.NumEdges() != accepted[j].g.NumEdges() {
			return accepted[i].g.NumEdges() < accepted[j].g.NumEdges()
		}
		return accepted[i].code < accepted[j].code
	})
	out := make([]*Feature, len(accepted))
	for i, c := range accepted {
		out[i] = &Feature{G: c.g, Support: c.support}
	}
	return out
}

// forEach runs fn(i) for every i in [0, n) on GOMAXPROCS workers. The
// loop cannot fail: its context is never cancelled and fn returns nil.
func forEach(n int, fn func(i int)) {
	_ = pool.ForEachIndexCtx(context.Background(), n, pool.Normalize(-1, n), func(i int) error {
		fn(i)
		return nil
	})
}

type candidate struct {
	g       *graph.Graph
	code    string
	support []int
}

// qualifies applies the α-frequency and discriminative rules to c.
func qualifies(c *candidate, dbc []*graph.Graph, indexed []*candidate, minSupport int, opt Options) bool {
	qualified := 0 // counted only as far as minSupport, all the rule reads
	for _, gi := range c.support {
		if qualified >= minSupport {
			break
		}
		if disjointRatioOK(c.g, dbc[gi], opt) {
			qualified++
		}
	}
	return qualified >= minSupport && discriminativeOK(c, indexed, opt.Gamma)
}

// grow builds the next level from the accepted parents (phases 3–5).
func grow(parents []*candidate, dbc []*graph.Graph, minSupport int, opt Options) []*candidate {
	// 3. Extension shapes, one task per parent, each sorted by code.
	shapes := make([][]*candidate, len(parents))
	forEach(len(parents), func(i int) { shapes[i] = extensionShapes(parents[i], dbc) })

	// The distinct codes in merge order (parents in order, codes ascending
	// within a parent), each with its first producer's graph and the
	// smallest support among its producers.
	var uniq []*candidate
	var base [][]int
	at := make(map[string]int)
	for i, ss := range shapes {
		for _, s := range ss {
			j, ok := at[s.code]
			if !ok {
				at[s.code] = len(uniq)
				uniq = append(uniq, s)
				base = append(base, parents[i].support)
			} else if len(parents[i].support) < len(base[j]) {
				base[j] = parents[i].support
			}
		}
	}

	// 4. One support per distinct code. A child contains each of its
	// producers, and a producer's support is exact, so filtering any of
	// them yields the child's exact support, in ascending order.
	forEach(len(uniq), func(j int) {
		supp := make([]int, 0, len(base[j]))
		for _, gi := range base[j] {
			if iso.Exists(uniq[j].g, dbc[gi], nil) {
				supp = append(supp, gi)
			}
		}
		uniq[j].support = supp
	})

	// 5. Merge: the first MaxCandidatesPerLevel frequent codes.
	var next []*candidate
	for _, c := range uniq {
		if len(next) >= opt.MaxCandidatesPerLevel {
			break
		}
		if len(c.support) >= minSupport {
			next = append(next, c)
		}
	}
	return next
}

// mineSingleEdges builds the level-1 candidates: one per distinct edge
// type (edge label and endpoint labels), read from each graph's EdgeTypes.
// A graph lists each type once, so a type's support ascends with gi.
func mineSingleEdges(dbc []*graph.Graph) []*candidate {
	supp := make(map[[3]graph.Handle][]int)
	for gi, g := range dbc {
		for _, t := range g.EdgeTypes() {
			supp[t.Labels] = append(supp[t.Labels], gi)
		}
	}
	var out []*candidate
	for tr, s := range supp { //pgvet:sorted collected, then sorted by code below
		b := graph.NewBuilder("f")
		u := b.AddVertex(tr[1].Value())
		v := b.AddVertex(tr[2].Value())
		b.MustAddEdge(u, v, tr[0].Value())
		g := b.Build()
		out = append(out, &candidate{g: g, code: graph.CanonicalCode(g), support: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].code < out[j].code })
	return out
}

// disjointRatioOK computes |IN| / |Ef| ≥ α for feature f in graph g, with
// Ef capped and IN greedy (the exact clique version is reserved for the PMI
// builder where tightness matters).
func disjointRatioOK(f, g *graph.Graph, opt Options) bool {
	sets := iso.EdgeSets(f, g, nil, maxEmbeddingsPerGraph)
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
func discriminativeOK(c *candidate, indexed []*candidate, gamma float64) bool {
	if len(c.support) == 0 {
		return false
	}
	var inter map[int]bool
	for _, f := range indexed {
		if f.g.NumEdges() >= c.g.NumEdges() {
			continue
		}
		if !iso.Exists(f.g, c.g, nil) {
			continue
		}
		if inter == nil {
			inter = make(map[int]bool, len(f.support))
			for _, gi := range f.support {
				inter[gi] = true
			}
			continue
		}
		keep := make(map[int]bool, len(inter))
		for _, gi := range f.support {
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

// shape identifies the pattern buildExtension makes from a parent: the
// edge labelled el from parent vertex pv, either back to parent vertex to
// or, when to is -1, to a new vertex labelled vl.
type shape struct {
	pv, to graph.VertexID
	vl, el graph.Label
}

// extensionShapes returns c's one-edge extensions, one per canonical code
// (the first graph built for it), sorted by code. Shapes come from the
// first 8 supporting graphs' first 8 embeddings each; a shape met again is
// skipped before it is built or coded.
func extensionShapes(c *candidate, dbc []*graph.Graph) []*candidate {
	built := make(map[shape]bool)
	byCode := make(map[string]*graph.Graph)
	samples := c.support
	if len(samples) > 8 {
		samples = samples[:8]
	}
	for _, gi := range samples {
		g := dbc[gi]
		for _, em := range iso.FindAll(c.g, g, nil, 8) {
			inImage := make(map[graph.VertexID]graph.VertexID, len(em.VMap)) // target -> pattern
			for pv, tv := range em.VMap {
				inImage[tv] = graph.VertexID(pv)
			}
			for pv, tv := range em.VMap {
				for _, h := range g.Neighbors(tv) {
					if em.Edges.Contains(h.Edge) {
						continue
					}
					s := shape{pv: graph.VertexID(pv), to: -1, el: g.EdgeLabel(h.Edge)}
					if opv, mapped := inImage[h.To]; mapped {
						s.to = opv
					} else {
						s.vl = g.VertexLabel(h.To)
					}
					if built[s] {
						continue
					}
					built[s] = true
					ng := buildExtension(c.g, s)
					if ng == nil {
						continue
					}
					code := graph.CanonicalCode(ng)
					if _, ok := byCode[code]; !ok {
						byCode[code] = ng
					}
				}
			}
		}
	}
	out := make([]*candidate, 0, len(byCode))
	for code, g := range byCode { //pgvet:sorted collected, then sorted by code below
		out = append(out, &candidate{g: g, code: code})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].code < out[j].code })
	return out
}

// buildExtension adds shape s to pattern p: a back edge between two
// pattern vertices (nil when that edge exists already) or a pendant edge
// to a new vertex.
func buildExtension(p *graph.Graph, s shape) *graph.Graph {
	b := graph.NewBuilder("f")
	for v := 0; v < p.NumVertices(); v++ {
		b.AddVertex(p.VertexLabel(graph.VertexID(v)))
	}
	for _, e := range p.Edges() {
		b.MustAddEdge(e.U, e.V, e.Label)
	}
	if s.to >= 0 {
		if _, err := b.AddEdge(s.pv, s.to, s.el); err != nil {
			return nil
		}
	} else {
		nv := b.AddVertex(s.vl)
		b.MustAddEdge(s.pv, nv, s.el)
	}
	return b.Build()
}
