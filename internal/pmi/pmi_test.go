package pmi

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/prob"
	"probgraph/internal/relax"
)

// buildSmallDB makes a small correlated database plus engines and features.
func buildSmallDB(t *testing.T, seed int64, n int, correlated bool) ([]*prob.PGraph, []*prob.Engine, []*feature.Feature) {
	t.Helper()
	db, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: n, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
		Labels: 3, Organisms: 2, Correlated: correlated, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*prob.Engine, len(db.Graphs))
	var certain []*graph.Graph
	for i, pg := range db.Graphs {
		eng, err := prob.NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
		certain = append(certain, pg.G)
	}
	feats := feature.Mine(certain, feature.Options{Beta: 0.2, Alpha: 0.05, Gamma: 0.05, MaxL: 3})
	if len(feats) == 0 {
		t.Fatal("no features for PMI test")
	}
	return db.Graphs, engines, feats
}

// mustBuild is Build for tests, which also holds every cell it built to the
// one relation Lower and Upper have to each other: both are exact
// evaluations — of different event families — bracketing the same SIP, so
// they may cross by rounding (and on real corpora do, by an ulp, in about a
// quarter of the contained cells) but by no more.
func mustBuild(t *testing.T, graphs []*prob.PGraph, engines []*prob.Engine, feats []*feature.Feature, opt Options) *Index {
	t.Helper()
	idx, err := Build(graphs, engines, feats, opt)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range idx.Features {
		for gi := range graphs {
			if e := idx.At(fi, gi); e.Lower > e.Upper+1e-12 {
				t.Errorf("feature %d graph %d: Lower %v above Upper %v", fi, gi, e.Lower, e.Upper)
			}
		}
	}
	return idx
}

// exactSIP computes Pr(f ⊆iso g) by world enumeration.
func exactSIP(t *testing.T, eng *prob.Engine, f, gc *graph.Graph) float64 {
	t.Helper()
	total := 0.0
	if err := prob.EnumerateWorlds(eng, func(w graph.EdgeSet, p float64) bool {
		if iso.Exists(f, gc, &w) {
			total += p
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return total
}

func TestBoundsSandwichExactSIP(t *testing.T) {
	for _, correlated := range []bool{false, true} {
		graphs, engines, feats := buildSmallDB(t, 21, 8, correlated)
		idx := mustBuild(t, graphs, engines, feats, NewOptions())
		const slack = 0.02 // bound derivation is exact only under the paper's CI assumption
		checked := 0
		for fi, fg := range idx.Features {
			for gi := range graphs {
				e := idx.At(fi, gi)
				if !e.Contained {
					continue
				}
				sip := exactSIP(t, engines[gi], fg, graphs[gi].G)
				if e.Lower > sip+slack {
					t.Errorf("correlated=%v feature %d graph %d: Lower %v > exact SIP %v", correlated, fi, gi, e.Lower, sip)
				}
				if e.Upper < sip-slack {
					t.Errorf("correlated=%v feature %d graph %d: Upper %v < exact SIP %v", correlated, fi, gi, e.Upper, sip)
				}
				if e.Lower < -1e-9 || e.Upper > 1+1e-9 {
					t.Errorf("bounds outside [0,1]: %+v", e)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no contained entries checked")
		}
	}
}

func TestUncontainedEntriesAreZero(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 33, 6, true)
	idx := mustBuild(t, graphs, engines, feats, NewOptions())
	for fi, fg := range idx.Features {
		for gi := range graphs {
			e := idx.At(fi, gi)
			if e.Contained != iso.Exists(fg, graphs[gi].G, nil) {
				t.Fatalf("containment flag wrong at (%d,%d)", fi, gi)
			}
			if !e.Contained && (e.Lower != 0 || e.Upper != 0) {
				t.Fatalf("uncontained entry not ⟨0⟩: %+v", e)
			}
		}
	}
}

func TestOptimizeTightensBounds(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 44, 8, true)
	on := mustBuild(t, graphs, engines, feats, NewOptions())
	optOff := NewOptions()
	optOff.Optimize = false
	off := mustBuild(t, graphs, engines, feats, optOff)
	// OPT bounds must never be looser (greedy families are sub-families of
	// the clique search space); strictly tighter somewhere is expected but
	// not guaranteed per entry.
	const eps = 1e-9
	for fi := range on.Features {
		for gi := range graphs {
			a, b := on.At(fi, gi), off.At(fi, gi)
			if !a.Contained {
				continue
			}
			if a.Lower < b.Lower-eps {
				t.Fatalf("OPT lower %v looser than greedy %v at (%d,%d)", a.Lower, b.Lower, fi, gi)
			}
			if a.Upper > b.Upper+eps {
				t.Fatalf("OPT upper %v looser than greedy %v at (%d,%d)", a.Upper, b.Upper, fi, gi)
			}
		}
	}
}

func TestLookupShape(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 66, 4, false)
	idx := mustBuild(t, graphs, engines, feats, NewOptions())
	row := idx.Lookup(0)
	if len(row) != idx.NumFeatures() {
		t.Fatalf("Lookup length %d, want %d", len(row), idx.NumFeatures())
	}
	if idx.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must be positive")
	}
}

func TestPaperFigure1Bounds(t *testing.T) {
	// Features in graph 002 of Figure 1, in the spirit of Examples 5–7: a
	// single a-b edge (multiple overlapping + disjoint embeddings) and the
	// a-b-b path. For each, the computed PMI entry must sandwich the exact
	// SIP, and the disjointness graph must be exercised (≥ 2 embeddings).
	_, g002, _, err := dataset.PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := prob.NewEngine(g002)
	if err != nil {
		t.Fatal(err)
	}
	mkPath := func(labels ...graph.Label) *graph.Graph {
		fb := graph.NewBuilder("f")
		prev := fb.AddVertex(labels[0])
		for _, l := range labels[1:] {
			next := fb.AddVertex(l)
			fb.MustAddEdge(prev, next, "")
			prev = next
		}
		return fb.Build()
	}
	for _, f := range []*graph.Graph{mkPath("a", "b"), mkPath("a", "b", "b"), mkPath("b", "b", "c")} {
		embs := iso.EdgeSets(f, g002.G, nil, 0)
		if len(embs) == 0 {
			t.Fatalf("feature %v does not embed in 002", f)
		}
		b := &graphBuilder{opt: NewOptions(), pg: g002, eng: eng}
		entry, err := b.bounds(f)
		if err != nil {
			t.Fatal(err)
		}
		sip := exactSIP(t, eng, f, g002.G)
		if entry.Lower > sip+1e-6 || entry.Upper < sip-1e-6 {
			t.Fatalf("feature %v: bounds [%v, %v] do not sandwich exact SIP %v", f, entry.Lower, entry.Upper, sip)
		}
	}
	// The a-b edge has two embeddings sharing vertex a2 plus nothing
	// disjoint... verify at least the 2-embedding case runs through the
	// clique machinery without degenerating.
	if n := len(iso.EdgeSets(mkPath("a", "b"), g002.G, nil, 0)); n < 2 {
		t.Fatalf("expected ≥2 a-b embeddings, got %d", n)
	}
}

func TestRelaxIntegrationSmoke(t *testing.T) {
	// PMI features must interoperate with relaxed queries: a feature equal
	// to a relaxed query must be detected as both sub- and super-graph.
	graphs, _, feats := buildSmallDB(t, 77, 4, true)
	q := dataset.ExtractQuery(graphs[0].G, 4, rand.New(rand.NewSource(3)))
	u := relax.Relaxed(q, 1, 0)
	if len(u) == 0 {
		t.Fatal("no relaxed queries")
	}
	found := false
	for _, rq := range u {
		for _, f := range feats {
			if iso.Exists(f.G, rq, nil) {
				found = true
			}
		}
	}
	if !found {
		t.Skip("no feature embeds in any relaxed query for this seed (acceptable)")
	}
}

// TestBuildReportsLowestGraphsError: a feature whose support lists graphs
// it does not embed in fails the build, and the error names the lowest such
// graph at every worker count — not whichever worker got there first — and
// the first such feature within it.
func TestBuildReportsLowestGraphsError(t *testing.T) {
	graphs, engines, feats := buildSmallDB(t, 29, 8, true)
	b := graph.NewBuilder("absent")
	b.MustAddEdge(b.AddVertex("no-such-label"), b.AddVertex("no-such-label"), "")
	absent := b.Build()
	bad := func(support ...int) *feature.Feature {
		return &feature.Feature{G: absent, Code: graph.CanonicalCode(absent), Support: support}
	}
	feats = append(feats, bad(6, 2, 5), bad(7, 2))
	want := ""
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(workers)
		_, err := Build(graphs, engines, feats, NewOptions())
		if err == nil {
			t.Fatalf("workers=%d: build succeeded with a support list naming graphs the feature is not in", workers)
		}
		if want == "" {
			want = err.Error()
			if !strings.Contains(want, fmt.Sprintf("feature %d on graph 2:", len(feats)-2)) {
				t.Fatalf("serial build reports %q, want feature %d on graph 2", want, len(feats)-2)
			}
		}
		if err.Error() != want {
			t.Errorf("workers=%d: error %q, serial build reports %q", workers, err, want)
		}
	}
}
