package feature

// refMine, refExtend and refBuildExtension are the serial miner as it was
// before mining ran in phases on the pool, kept verbatim but for their
// names as the reference TestMineMatchesReference holds Mine to, bitwise.
// They share mineSingleEdges, disjointRatioOK and discriminativeOK with
// Mine, which did not change.

import (
	"bytes"
	"runtime"
	"sort"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
)

// TestMineMatchesReference holds the phased, parallel Mine to the serial
// reference miner bitwise — feature graphs, codes and supports, in order —
// over generated corpora and option sets at GOMAXPROCS 1 and 4. Two cases
// are checked to bind a cap, MaxFeatures and MaxCandidatesPerLevel, so the
// cut-offs are exercised and not only the unbounded growth.
func TestMineMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		data  dataset.PPIOptions
		opt   Options
		binds string // "", "MaxFeatures" or "MaxCandidatesPerLevel"
	}{
		{"ledger", dataset.PPIOptions{NumGraphs: 120, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 1}, Options{Beta: 0.2, Alpha: 0.1, Gamma: 0.1, MaxL: 4}, ""},
		{"defaults", dataset.PPIOptions{NumGraphs: 40, Correlated: true, Seed: 2}, Options{}, ""},
		{"loose", dataset.PPIOptions{NumGraphs: 40, Organisms: 4, Correlated: true, Seed: 3}, Options{Alpha: 0.05, Beta: 0.05, Gamma: 0.05, MaxL: 5, MaxFeatures: 40, MaxCandidatesPerLevel: 20}, ""},
		{"few-labels", dataset.PPIOptions{NumGraphs: 30, MinVertices: 6, MaxVertices: 9, Labels: 3, Organisms: 3, Seed: 4}, Options{Beta: 0.3, Alpha: 0.1, Gamma: 0.1, MaxL: 6}, ""},
		{"gamma-off", dataset.PPIOptions{NumGraphs: 36, MinVertices: 8, MaxVertices: 12, Organisms: 5, Seed: 5}, Options{Beta: 0.2, Alpha: 0.05, Gamma: -1, MaxL: 5}, ""},
		{"max-features", dataset.PPIOptions{NumGraphs: 40, MinVertices: 8, MaxVertices: 12, Organisms: 4, Correlated: true, Seed: 6}, Options{Beta: 0.1, Alpha: 0.05, Gamma: 0.05, MaxL: 6, MaxFeatures: 25}, "MaxFeatures"},
		{"max-candidates", dataset.PPIOptions{NumGraphs: 40, MinVertices: 8, MaxVertices: 12, Organisms: 4, Correlated: true, Seed: 7}, Options{Beta: 0.1, Alpha: 0.05, Gamma: -1, MaxL: 5, MaxCandidatesPerLevel: 8}, "MaxCandidatesPerLevel"},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, err := dataset.GeneratePPI(tc.data)
			if err != nil {
				t.Fatal(err)
			}
			dbc := make([]*graph.Graph, len(db.Graphs))
			for i, pg := range db.Graphs {
				dbc[i] = pg.G
			}
			want := refMine(dbc, tc.opt)
			if len(want) == 0 {
				t.Fatal("reference mined no features")
			}
			if tc.binds != "" {
				// Lifting the cap must change what the reference mines.
				lifted := tc.opt
				switch tc.binds {
				case "MaxFeatures":
					lifted.MaxFeatures = 1 << 20
				case "MaxCandidatesPerLevel":
					lifted.MaxCandidatesPerLevel = 1 << 20
				}
				if sameFeatures(refMine(dbc, lifted), want) {
					t.Fatalf("%s does not bind", tc.binds)
				}
			}
			for _, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				if got := Mine(dbc, tc.opt); !sameFeatures(got, want) {
					t.Fatalf("GOMAXPROCS %d: Mine differs from the reference (%d vs %d features)", procs, len(got), len(want))
				}
			}
		})
	}
}

// sameFeatures reports whether two feature lists are equal element by
// element: graph bytes, canonical code and support.
func sameFeatures(a, b []*Feature) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		var ga, gb bytes.Buffer
		if graph.Encode(&ga, a[i].G) != nil || graph.Encode(&gb, b[i].G) != nil {
			return false
		}
		if !bytes.Equal(ga.Bytes(), gb.Bytes()) || graph.CanonicalCode(a[i].G) != graph.CanonicalCode(b[i].G) ||
			!equalInts(a[i].Support, b[i].Support) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refMine extracts features from the certain graphs dbc.
func refMine(dbc []*graph.Graph, opt Options) []*Feature {
	opt = opt.withDefaults()
	if len(dbc) == 0 {
		return nil
	}
	minSupport := int(opt.Beta * float64(len(dbc)))
	if minSupport < 1 {
		minSupport = 1
	}

	var out []*candidate
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
			out = append(out, c)
			supportOf[c.code] = c.support

			// Grow.
			if c.g.NumVertices() >= opt.MaxL {
				continue
			}
			for _, ext := range refExtend(c, dbc, opt) {
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
		if out[i].g.NumEdges() != out[j].g.NumEdges() {
			return out[i].g.NumEdges() < out[j].g.NumEdges()
		}
		return out[i].code < out[j].code
	})
	feats := make([]*Feature, len(out))
	for i, c := range out {
		feats[i] = &Feature{G: c.g, Support: c.support}
	}
	return feats
}

// refExtend grows a candidate by one edge using its embeddings in supporting
// graphs; support is computed exactly (iso test over the parent support).
func refExtend(c *candidate, dbc []*graph.Graph, opt Options) []*candidate {
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
					ng := refBuildExtension(c.g, graph.VertexID(pv), inImage, g, h)
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

// refBuildExtension adds to pattern p the target edge h leaving the image of
// pattern vertex pv: either a back-edge to another mapped vertex or a fresh
// pendant vertex carrying the target's labels.
func refBuildExtension(p *graph.Graph, pv graph.VertexID, inImage map[graph.VertexID]graph.VertexID, g *graph.Graph, h graph.HalfEdge) *graph.Graph {
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
