package pmi

import (
	"fmt"
	"math"
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

// mustBuild is Build for tests, which also holds every cell it built to
// Lower ≤ Upper bitwise. The options are what the caller's database would
// carry; the build reads none of them.
func mustBuild(t *testing.T, graphs []*prob.PGraph, engines []*prob.Engine, feats []*feature.Feature, _ Options) *Index {
	t.Helper()
	idx, err := Build(graphs, engines, feats)
	if err != nil {
		t.Fatal(err)
	}
	for fi := range idx.Features {
		for gi := range graphs {
			if e := idx.At(fi, gi); e.Lower > e.Upper {
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

// TestBoundsSandwichCappedList: a feature with more embeddings than
// maxEmbeddings lists only some of them, and a cut of the listed sets need
// not hit the rest, so no Upper may come from those cuts. Thirty disjoint
// a–b edges at p = 0.1 have SIP = 1 − 0.9^30 = 0.9576; cuts of the 24
// listed ones read 0.9202.
func TestBoundsSandwichCappedList(t *testing.T) {
	pg, eng := disjointEdges(t, 30, 0.1)
	f := path("a", "b")
	sip := 1 - math.Pow(0.9, 30)
	for _, opt := range []Options{NewOptions(), {Optimize: true}, {}} {
		e, err := (&graphBuilder{opt: opt, pg: pg, eng: eng}).bounds(f)
		if err != nil {
			t.Fatal(err)
		}
		if e.Lower > sip+1e-12 || e.Upper < sip-1e-12 || e.Lower <= 0 {
			t.Errorf("%+v: capped cell [%v, %v] does not sandwich SIP %v", opt, e.Lower, e.Upper, sip)
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
		return &feature.Feature{G: absent, Support: support}
	}
	feats = append(feats, bad(6, 2, 5), bad(7, 2))
	want := ""
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(workers)
		_, err := Build(graphs, engines, feats)
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
