package pmi

import (
	"encoding/json"
	"math"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/prob"
)

// path builds a labelled path feature.
func path(labels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder("f")
	prev := b.AddVertex(labels[0])
	for _, l := range labels[1:] {
		next := b.AddVertex(l)
		b.MustAddEdge(prev, next, "")
		prev = next
	}
	return b.Build()
}

// disjointEdges is a graph of n disjoint a–b edges, each present
// independently with probability p, and its engine: the a–b feature has n
// embeddings, and SIP = 1 − (1 − p)^n.
func disjointEdges(t *testing.T, n int, p float64) (*prob.PGraph, *prob.Engine) {
	t.Helper()
	b := graph.NewBuilder("disjoint")
	probs := map[graph.EdgeID]float64{}
	for i := 0; i < n; i++ {
		probs[b.MustAddEdge(b.AddVertex("a"), b.AddVertex("b"), "")] = p
	}
	pg, err := prob.NewIndependent(b.Build(), probs)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	return pg, eng
}

// TestExactCellMatchesEnumeration: every contained cell of a default build
// is exact — Lower == Upper bitwise — and equals world enumeration's SIP to
// 1e-12.
func TestExactCellMatchesEnumeration(t *testing.T) {
	for _, seed := range []int64{21, 33} {
		for _, correlated := range []bool{false, true} {
			graphs, engines, feats := buildSmallDB(t, seed, 8, correlated)
			idx := mustBuild(t, graphs, engines, feats, NewOptions())
			checked := 0
			for fi, fg := range idx.Features {
				for gi := range graphs {
					e := idx.At(fi, gi)
					if !e.Contained {
						continue
					}
					if e.Lower != e.Upper {
						t.Errorf("seed %d correlated=%v cell (%d,%d): [%v, %v] is not exact", seed, correlated, fi, gi, e.Lower, e.Upper)
					}
					if sip := exactSIP(t, engines[gi], fg, graphs[gi].G); math.Abs(e.Lower-sip) > 1e-12 {
						t.Errorf("seed %d correlated=%v cell (%d,%d): %v, enumeration %v", seed, correlated, fi, gi, e.Lower, sip)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("seed %d correlated=%v: no contained cell", seed, correlated)
			}
		}
	}
}

// TestExactCellEdgeProbabilities holds single cells to enumeration where
// the model is awkward: graph 002 of the paper's Figure 1 (overlapping
// JPTs, a partition function other than 1), and a graph with edges at
// probability 0 and 1, a certain edge and a JPT with a zero row.
func TestExactCellEdgeProbabilities(t *testing.T) {
	_, g002, _, err := dataset.PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder("degenerate")
	a0, b1, a2, b3, c4 := b.AddVertex("a"), b.AddVertex("b"), b.AddVertex("a"), b.AddVertex("b"), b.AddVertex("c")
	sure := b.MustAddEdge(a0, b1, "")
	never := b.MustAddEdge(b1, a2, "")
	half := b.MustAddEdge(a2, b3, "")
	b.MustAddEdge(b3, c4, "") // in no JPT: certain
	joint := b.MustAddEdge(a0, b3, "")
	degenerate, err := prob.New(b.Build(), []prob.JPT{
		prob.NewIndependentJPT(sure, 1),
		prob.NewIndependentJPT(never, 0),
		{Edges: []graph.EdgeID{half, joint}, P: []float64{0.2, 0, 0.5, 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	feats := []*graph.Graph{path("a", "b"), path("a", "b", "b"), path("b", "b", "c"), path("b", "a", "b"), path("a", "b", "c"), path("c", "b", "a", "b")}
	checked := 0
	for _, pg := range []*prob.PGraph{g002, degenerate} {
		eng, err := prob.NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		gb := &graphBuilder{opt: NewOptions(), pg: pg, eng: eng}
		for _, f := range feats {
			if !iso.Exists(f, pg.G, nil) {
				continue
			}
			e, err := gb.bounds(f)
			if err != nil {
				t.Fatal(err)
			}
			sip := exactSIP(t, eng, f, pg.G)
			if e.Lower != e.Upper || math.Abs(e.Lower-sip) > 1e-12 {
				t.Errorf("%s, feature of %d edges: cell [%v, %v], enumeration %v", pg.G.Name(), f.NumEdges(), e.Lower, e.Upper, sip)
			}
			checked++
		}
	}
	if checked < 6 {
		t.Fatalf("only %d cells checked", checked)
	}
}

// TestExactCellWithinFamilyBounds: an exact cell lies within both family
// builds' bounds of the same cell, up to rounding.
func TestExactCellWithinFamilyBounds(t *testing.T) {
	for _, correlated := range []bool{false, true} {
		graphs, engines, feats := buildSmallDB(t, 44, 8, correlated)
		exact := mustBuild(t, graphs, engines, feats, NewOptions())
		plain := familyOptions()
		plain.Optimize = false
		for _, opt := range []Options{familyOptions(), plain} {
			fam := mustBuild(t, graphs, engines, feats, opt)
			checked := 0
			for fi := range exact.Features {
				for gi := range graphs {
					x, f := exact.At(fi, gi), fam.At(fi, gi)
					if x.Contained != f.Contained {
						t.Fatalf("cell (%d,%d): containment differs", fi, gi)
					}
					if !x.Contained {
						continue
					}
					if x.Lower < f.Lower-1e-12 || x.Upper > f.Upper+1e-12 {
						t.Errorf("correlated=%v %+v cell (%d,%d): exact %v outside family [%v, %v]", correlated, opt, fi, gi, x.Lower, f.Lower, f.Upper)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatal("no contained cell")
			}
		}
	}
}

// TestExactCellFallback: a cell whose elimination is over the budget is
// the family cell bitwise, and a capped embedding list keeps Upper 1 with
// its Lower from the listed sets — their exact union within budget, the
// family lower bound over it.
func TestExactCellFallback(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 21, 8, true)
	fam := mustBuild(t, graphs, engines, feats, familyOptions())
	checked := 0
	for fi, f := range fam.Features {
		for gi := range graphs {
			if !fam.At(fi, gi).Contained {
				continue
			}
			b := &graphBuilder{opt: NewOptions(), pg: graphs[gi], eng: engines[gi]}
			embs := iso.EdgeSets(f, graphs[gi].G, nil, maxEmbeddings)
			if _, ok, _ := b.union(embs, 0); ok {
				continue // certain or impossible: exact at no cost
			}
			got, err := b.entry(embs, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got != fam.At(fi, gi) {
				t.Errorf("cell (%d,%d) over budget: %+v, family cell %+v", fi, gi, got, fam.At(fi, gi))
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no cell went over a zero budget")
	}

	pg, eng := disjointEdges(t, 30, 0.1)
	f := path("a", "b")
	embs := iso.EdgeSets(f, pg.G, nil, maxEmbeddings)
	if len(embs) != maxEmbeddings {
		t.Fatalf("%d embeddings listed, want the cap %d", len(embs), maxEmbeddings)
	}
	familyLower, err := (&graphBuilder{opt: familyOptions(), pg: pg, eng: eng}).lowerBound(embs)
	if err != nil {
		t.Fatal(err)
	}
	listed := 1 - math.Pow(0.9, maxEmbeddings)
	for _, c := range []struct {
		opt    Options
		budget int
		lower  float64
	}{
		{NewOptions(), exactBudget, listed},
		{NewOptions(), 0, familyLower},
		{familyOptions(), exactBudget, familyLower},
	} {
		got, err := (&graphBuilder{opt: c.opt, pg: pg, eng: eng}).entry(embs, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if got.Upper != 1 || math.Abs(got.Lower-c.lower) > 1e-12 {
			t.Errorf("%+v budget %d: capped cell [%v, %v], want [%v, 1]", c.opt, c.budget, got.Lower, got.Upper, c.lower)
		}
	}
}

// TestExactCellLegacyOptions: an options blob written before Exact existed
// has no such key and decodes to family cells.
func TestExactCellLegacyOptions(t *testing.T) {
	var opt Options
	if err := json.Unmarshal([]byte(`{"Optimize":true,"Seed":1}`), &opt); err != nil {
		t.Fatal(err)
	}
	if opt != (Options{Optimize: true, Seed: 1}) {
		t.Fatalf("legacy blob decodes to %+v", opt)
	}
	blob, err := json.Marshal(NewOptions())
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Optimize":true,"Exact":true,"Seed":0}`; string(blob) != want {
		t.Fatalf("NewOptions encodes as %s, want %s", blob, want)
	}
}
