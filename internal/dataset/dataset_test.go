package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/prob"
	"probgraph/internal/relax"
)

func TestGeneratePPIShape(t *testing.T) {
	db, err := GeneratePPI(PPIOptions{NumGraphs: 12, Organisms: 3, Correlated: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Graphs) != 12 || len(db.Organism) != 12 || len(db.Seeds) != 3 {
		t.Fatalf("shape: %d graphs, %d organisms, %d seeds", len(db.Graphs), len(db.Organism), len(db.Seeds))
	}
	for gi, pg := range db.Graphs {
		if pg.G.NumVertices() < 10 || pg.G.NumVertices() > 18 {
			t.Fatalf("graph %d has %d vertices outside defaults", gi, pg.G.NumVertices())
		}
		if db.Organism[gi] != gi%3 {
			t.Fatalf("organism assignment broken at %d", gi)
		}
		// Every JPT scope must be a neighbor-edge set per Definition 1.
		for ji, j := range pg.JPTs {
			if !prob.IsNeighborEdgeSet(pg.G, j.Edges) {
				t.Fatalf("graph %d JPT %d is not a neighbor edge set", gi, ji)
			}
		}
	}
}

// TestGeneratePPIRejectsOutOfRangeOptions pins the ranges that used to
// panic inside the generator: each is an error naming the option.
func TestGeneratePPIRejectsOutOfRangeOptions(t *testing.T) {
	for _, tc := range []struct {
		opt  PPIOptions
		want string
	}{
		{PPIOptions{MinVertices: -3}, "MinVertices"},
		{PPIOptions{MinVertices: 10, MaxVertices: 5}, "MaxVertices"},
		{PPIOptions{MinVertices: 20}, "MaxVertices"}, // above the default maximum
		{PPIOptions{Organisms: -1}, "Organisms"},
		{PPIOptions{Labels: -1}, "Labels"},
	} {
		tc.opt.NumGraphs = 3
		db, err := GeneratePPI(tc.opt)
		if err == nil || !strings.Contains(err.Error(), tc.want) || db != nil {
			t.Errorf("%+v: got (%v, %v), want an error naming %s", tc.opt, db != nil, err, tc.want)
		}
	}
	// The boundary values are accepted.
	if _, err := GeneratePPI(PPIOptions{NumGraphs: 3, MinVertices: 1, MaxVertices: 1, Organisms: 1, Labels: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratePPIDeterministic(t *testing.T) {
	a, err := GeneratePPI(PPIOptions{NumGraphs: 6, Seed: 42, Correlated: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePPI(PPIOptions{NumGraphs: 6, Seed: 42, Correlated: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Graphs {
		if a.Graphs[i].G.String() != b.Graphs[i].G.String() {
			t.Fatalf("graph %d differs across identical seeds", i)
		}
		if len(a.Graphs[i].JPTs) != len(b.Graphs[i].JPTs) {
			t.Fatal("JPT structure differs")
		}
	}
}

func TestCorrelatedModelNormalized(t *testing.T) {
	db, err := GeneratePPI(PPIOptions{NumGraphs: 4, MinVertices: 5, MaxVertices: 6, Correlated: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for gi, pg := range db.Graphs {
		eng, err := prob.NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		// Edge-disjoint normalized JPTs ⇒ Z = 1 exactly.
		if math.Abs(eng.Z()-1) > 1e-9 {
			t.Fatalf("graph %d: Z = %v, want 1", gi, eng.Z())
		}
	}
}

func TestGroupNeighborEdgesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, "x", 12, 20, 3)
	groups := GroupNeighborEdges(g, 3)
	seen := make(map[graph.EdgeID]bool)
	for _, grp := range groups {
		if len(grp) == 0 || len(grp) > 3 {
			t.Fatalf("group size %d outside (0,3]", len(grp))
		}
		if !prob.IsNeighborEdgeSet(g, grp) {
			t.Fatalf("group %v is not a neighbor edge set", grp)
		}
		for _, e := range grp {
			if seen[e] {
				t.Fatalf("edge %d in two groups", e)
			}
			seen[e] = true
		}
	}
	if len(seen) != g.NumEdges() {
		t.Fatalf("partition covers %d of %d edges", len(seen), g.NumEdges())
	}
}

func TestMaxRuleJPT(t *testing.T) {
	probs := []float64{0.9, 0.2}
	j := MaxRuleJPT([]graph.EdgeID{0, 1}, probs)
	// Raw weights: 00: max(0.1,0.8)=0.8; 10: max(0.9,0.8)=0.9;
	// 01: max(0.1,0.2)=0.2; 11: max(0.9,0.2)=0.9. Sum=2.8.
	want := []float64{0.8 / 2.8, 0.9 / 2.8, 0.2 / 2.8, 0.9 / 2.8}
	for i, w := range want {
		if math.Abs(j.P[i]-w) > 1e-12 {
			t.Fatalf("row %d: got %v want %v", i, j.P[i], w)
		}
	}
}

func TestExtractQueryConnectedAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db, err := GeneratePPI(PPIOptions{NumGraphs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g := db.Graphs[0].G
	for _, want := range []int{1, 3, 5, 8} {
		q := ExtractQuery(g, want, rng)
		if q.NumEdges() != want {
			t.Fatalf("query has %d edges, want %d", q.NumEdges(), want)
		}
		if !q.IsConnected() {
			t.Fatalf("query with %d edges is disconnected", want)
		}
		if !iso.Exists(q, g, nil) {
			t.Fatalf("extracted query does not embed in its source")
		}
	}
}

func TestExtractQueryDegenerate(t *testing.T) {
	empty := graph.NewBuilder("e").Build()
	rng := rand.New(rand.NewSource(1))
	q := ExtractQuery(empty, 3, rng)
	if q.NumEdges() != 0 {
		t.Fatal("query from empty graph must be empty")
	}
}

func TestPaperFigure1Fixture(t *testing.T) {
	g001, g002, q, err := PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if g001.G.NumEdges() != 3 || g002.G.NumEdges() != 5 || q.NumEdges() != 5 {
		t.Fatal("figure 1 shapes wrong")
	}
	eng1, err := prob.NewEngine(g001)
	if err != nil {
		t.Fatal(err)
	}
	// Graph 001's printed JPT: Pr(e1,e2,e3 all present) = 0.2.
	all := graph.FullEdgeSet(3)
	p, err := eng1.ProbLits(prob.AllPresent(all))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.2) > 1e-12 {
		t.Fatalf("Pr(001 complete) = %v, want 0.2", p)
	}

	// Graph 002: shared edge e3 between the two JPTs — engine normalizes.
	eng2, err := prob.NewEngine(g002)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	if err := prob.EnumerateWorlds(eng2, func(w graph.EdgeSet, pw float64) bool {
		sum += pw
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("002 world mass = %v, want 1", sum)
	}

	// Example 1 structure: q relaxed by one edge matches worlds of 002.
	u := relax.Relaxed(q, 1, 0)
	if len(u) == 0 {
		t.Fatal("no relaxed queries")
	}
	found := false
	for _, rq := range u {
		if iso.Exists(rq, g002.G, nil) {
			found = true
		}
	}
	if !found {
		t.Fatal("no relaxed query embeds in 002's certain graph")
	}
}

func TestRoadGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pg, err := GenerateRoadGrid(4, 5, 0.5, 0.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pg.G.NumVertices() != 20 {
		t.Fatalf("grid vertices = %d, want 20", pg.G.NumVertices())
	}
	// 4×5 grid: 4·(5−1) + 5·(4−1) = 31 edges.
	if pg.G.NumEdges() != 31 {
		t.Fatalf("grid edges = %d, want 31", pg.G.NumEdges())
	}
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(eng.Z()-1) > 1e-9 {
		t.Fatalf("grid Z = %v, want 1", eng.Z())
	}
}

func TestCodecRoundTrip(t *testing.T) {
	db, err := GeneratePPI(PPIOptions{NumGraphs: 5, MinVertices: 5, MaxVertices: 7, Correlated: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Graphs) != len(db.Graphs) {
		t.Fatalf("round trip lost graphs: %d vs %d", len(back.Graphs), len(db.Graphs))
	}
	for i := range db.Graphs {
		a, b := db.Graphs[i], back.Graphs[i]
		if a.G.String() != b.G.String() {
			t.Fatalf("graph %d structure differs", i)
		}
		if back.Organism[i] != db.Organism[i] {
			t.Fatalf("graph %d organism differs", i)
		}
		if len(a.JPTs) != len(b.JPTs) {
			t.Fatalf("graph %d JPT count differs", i)
		}
		for j := range a.JPTs {
			for k := range a.JPTs[j].P {
				if math.Abs(a.JPTs[j].P[k]-b.JPTs[j].P[k]) > 1e-12 {
					t.Fatalf("graph %d JPT %d row %d differs", i, j, k)
				}
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"v 0 a\n",
		"pgraph x\nv 0 a\n",               // unterminated
		"pgraph x\nv 0 a\njpt 1 0\nend\n", // jpt without p
		"pgraph x\np 0.5 0.5\nend\n",      // p without jpt
		"pgraph x\nv 0 a\nv 1 a\ne 0 1 -\njpt 1 0\np 0.5\nend\n", // wrong row count
		"bogus\n",
	}
	for i, in := range cases {
		if _, err := Load(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestMeanEdgeProb(t *testing.T) {
	db, err := GeneratePPI(PPIOptions{NumGraphs: 6, MinVertices: 6, MaxVertices: 8, Correlated: false, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeanEdgeProb(db)
	if err != nil {
		t.Fatal(err)
	}
	// IND model: marginals equal the sampled probabilities, whose mean
	// should be near the configured 0.383.
	if m < 0.25 || m > 0.55 {
		t.Fatalf("mean edge probability %v far from configured 0.383", m)
	}
}

func TestIndependentVsCorrelatedSameStructure(t *testing.T) {
	// With the same seed, COR and IND share graph structure (only the JPTs
	// differ) — required for the Figure 14 comparison.
	cor, err := GeneratePPI(PPIOptions{NumGraphs: 4, Seed: 21, Correlated: true})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := GeneratePPI(PPIOptions{NumGraphs: 4, Seed: 21, Correlated: false})
	if err != nil {
		t.Fatal(err)
	}
	for i := range cor.Graphs {
		if cor.Graphs[i].G.String() != ind.Graphs[i].G.String() {
			t.Fatalf("graph %d differs between COR and IND", i)
		}
	}
}
