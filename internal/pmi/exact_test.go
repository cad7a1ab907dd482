package pmi

import (
	"fmt"
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

// degenerate is a graph with edges at probability 0 and 1, a certain edge
// and a JPT with a zero row, and the features of TestExactCellEdgeProbabilities.
func degenerate(t *testing.T) (*prob.PGraph, []*graph.Graph) {
	t.Helper()
	b := graph.NewBuilder("degenerate")
	a0, b1, a2, b3, c4 := b.AddVertex("a"), b.AddVertex("b"), b.AddVertex("a"), b.AddVertex("b"), b.AddVertex("c")
	sure := b.MustAddEdge(a0, b1, "")
	never := b.MustAddEdge(b1, a2, "")
	half := b.MustAddEdge(a2, b3, "")
	b.MustAddEdge(b3, c4, "") // in no JPT: certain
	joint := b.MustAddEdge(a0, b3, "")
	pg, err := prob.New(b.Build(), []prob.JPT{
		prob.NewIndependentJPT(sure, 1),
		prob.NewIndependentJPT(never, 0),
		{Edges: []graph.EdgeID{half, joint}, P: []float64{0.2, 0, 0.5, 0.3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pg, []*graph.Graph{path("a", "b"), path("a", "b", "b"), path("b", "b", "c"), path("b", "a", "b"), path("a", "b", "c"), path("c", "b", "a", "b")}
}

// TestExactCellEdgeProbabilities holds single cells to enumeration where
// the model is awkward: graph 002 of the paper's Figure 1 (overlapping
// JPTs, a partition function other than 1), and the degenerate graph.
func TestExactCellEdgeProbabilities(t *testing.T) {
	_, g002, _, err := dataset.PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	pg, feats := degenerate(t)
	checked := 0
	for _, pg := range []*prob.PGraph{g002, pg} {
		eng, err := prob.NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range feats {
			if !iso.Exists(f, pg.G, nil) {
				continue
			}
			e, err := cell(eng, f)
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

// TestExactCellFallback forces the rule for cells that cannot be exact
// — a zero budget on every contained cell of two small corpora and of the
// degenerate graph, a capped list at both budgets — and holds each to
// Lower ≤ SIP ≤ Upper, Lower ≤ Upper bitwise. Over budget, Lower is the
// largest embedding's probability and a complete list's Upper the union
// bound; a capped list's Upper is 1, its Lower the listed sets' union
// where that fits.
func TestExactCellFallback(t *testing.T) {
	check := func(at string, e Entry, sip float64) {
		t.Helper()
		if !e.Contained || e.Lower > e.Upper || e.Lower > sip+1e-12 || e.Upper < sip-1e-12 || e.Lower < 0 || e.Upper > 1 {
			t.Errorf("%s: cell %+v does not sandwich SIP %v", at, e, sip)
		}
	}
	fallbacks := 0
	overBudget := func(at string, eng *prob.Engine, f *graph.Graph) {
		t.Helper()
		embs := iso.EdgeSets(f, eng.PGraph().G, nil, maxEmbeddings)
		e, err := entry(eng, embs, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(at, e, exactSIP(t, eng, f, eng.PGraph().G))
		if e.Lower != e.Upper {
			fallbacks++
		}
	}
	for _, correlated := range []bool{false, true} {
		graphs, engines, feats := buildSmallDB(t, 21, 8, correlated)
		idx := mustBuild(t, graphs, engines, feats, NewOptions())
		for fi, f := range idx.Features {
			for gi := range graphs {
				if idx.At(fi, gi).Contained {
					overBudget(fmt.Sprintf("correlated=%v cell (%d,%d)", correlated, fi, gi), engines[gi], f)
				}
			}
		}
	}
	pg, feats := degenerate(t)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range feats {
		if iso.Exists(f, pg.G, nil) {
			overBudget(fmt.Sprintf("degenerate feature %d", i), eng, f)
		}
	}
	if fallbacks == 0 {
		t.Fatal("no cell took the fallback under a zero budget")
	}

	// Four disjoint a–b edges at p = 0.1, complete: max 0.1, Σ 0.4.
	pg, eng = disjointEdges(t, 4, 0.1)
	e, err := entry(eng, iso.EdgeSets(path("a", "b"), pg.G, nil, maxEmbeddings), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.Lower-0.1) > 1e-12 || math.Abs(e.Upper-0.4) > 1e-12 {
		t.Errorf("complete list over budget: cell [%v, %v], want [0.1, 0.4]", e.Lower, e.Upper)
	}
	check("complete list over budget", e, 1-math.Pow(0.9, 4))

	// Thirty at p = 0.1 list only the cap.
	pg, eng = disjointEdges(t, 30, 0.1)
	embs := iso.EdgeSets(path("a", "b"), pg.G, nil, maxEmbeddings)
	if len(embs) != maxEmbeddings {
		t.Fatalf("%d embeddings listed, want the cap %d", len(embs), maxEmbeddings)
	}
	for _, c := range []struct {
		budget int
		lower  float64
	}{{exactBudget, 1 - math.Pow(0.9, maxEmbeddings)}, {0, 0.1}} {
		e, err := entry(eng, embs, c.budget)
		if err != nil {
			t.Fatal(err)
		}
		if e.Upper != 1 || math.Abs(e.Lower-c.lower) > 1e-12 {
			t.Errorf("budget %d: capped cell [%v, %v], want [%v, 1]", c.budget, e.Lower, e.Upper, c.lower)
		}
		check(fmt.Sprintf("capped list, budget %d", c.budget), e, 1-math.Pow(0.9, 30))
	}
}

// graphBuilder is the cell rule in the form TestBoundsSandwichCappedList
// calls it, written when a build's options chose between cell rules; opt
// and pg select nothing now.
type graphBuilder struct {
	opt Options
	pg  *prob.PGraph
	eng *prob.Engine
}

func (b *graphBuilder) bounds(f *graph.Graph) (Entry, error) { return cell(b.eng, f) }
