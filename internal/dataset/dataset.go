// Package dataset generates and (de)serializes probabilistic graph
// databases.
//
// The paper evaluates on PPI networks from STRING/BioGRID: 5K probabilistic
// graphs averaging 385 vertices and 612 edges, average edge probability
// 0.383, with vertex labels from COG functional annotations, and JPTs built
// by the rule Pr(x_ne) = max_i Pr(x_i) normalized per neighbor-edge set
// (paper §6). That data is license-gated, so this package synthesizes the
// closest equivalent: labeled sparse graphs with the same statistics knobs,
// organized into "organism" families (the ground truth for the Figure 14
// quality experiment), with exactly the paper's JPT construction. The IND
// variant keeps per-edge probabilities but drops correlations, mirroring
// the paper's COR-vs-IND comparison.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// PPIOptions shapes the synthetic PPI-like database.
type PPIOptions struct {
	NumGraphs   int     // default 60
	MinVertices int     // default 10
	MaxVertices int     // default 18
	EdgeFactor  float64 // edges ≈ EdgeFactor × vertices; default 1.5
	Labels      int     // COG-like vertex alphabet size; default 8
	MeanProb    float64 // mean edge existence probability; default 0.383
	MaxGroup    int     // neighbor-edge-set size cap; default 3
	Organisms   int     // number of families; default 6
	Mutations   float64 // fraction of edges rewired per graph; default 0.25
	Correlated  bool    // true = COR (max-rule JPTs), false = IND
	// CorrelationBoost > 0 multiplies each JPT's all-present and all-absent
	// rows by (1 + boost) before normalization, strengthening positive
	// co-existence correlation (PPI interactions predicted from shared
	// elementary links co-occur, per the paper's refs [9, 28]). 0 keeps the
	// pure max-rule construction of the paper's §6.
	CorrelationBoost float64
	Seed             int64
}

func (o PPIOptions) withDefaults() PPIOptions {
	if o.NumGraphs == 0 {
		o.NumGraphs = 60
	}
	if o.MinVertices == 0 {
		o.MinVertices = 10
	}
	if o.MaxVertices == 0 {
		o.MaxVertices = 18
	}
	if o.EdgeFactor == 0 {
		o.EdgeFactor = 1.5
	}
	if o.Labels == 0 {
		o.Labels = 8
	}
	if o.MeanProb == 0 {
		o.MeanProb = 0.383
	}
	if o.MaxGroup == 0 {
		o.MaxGroup = 3
	}
	if o.Organisms == 0 {
		o.Organisms = 6
	}
	if o.Mutations == 0 {
		o.Mutations = 0.25
	}
	return o
}

// check reports the first defaulted option outside the range the generator
// can honour.
func (o PPIOptions) check() error {
	switch {
	case o.MinVertices < 1:
		return fmt.Errorf("dataset: MinVertices must be >= 1, got %d", o.MinVertices)
	case o.MaxVertices < o.MinVertices:
		return fmt.Errorf("dataset: MaxVertices %d is below MinVertices %d", o.MaxVertices, o.MinVertices)
	case o.Organisms < 1:
		return fmt.Errorf("dataset: Organisms must be >= 1, got %d", o.Organisms)
	case o.Labels < 1:
		return fmt.Errorf("dataset: Labels must be >= 1, got %d", o.Labels)
	}
	return nil
}

// DB is a generated database with organism ground truth.
type DB struct {
	Graphs   []*prob.PGraph
	Organism []int          // family of each graph
	Seeds    []*graph.Graph // family seed graphs
}

// GeneratePPI builds the synthetic PPI-like database. Zero options take
// their defaults; out-of-range ones are an error.
func GeneratePPI(opt PPIOptions) (*DB, error) {
	opt = opt.withDefaults()
	if err := opt.check(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	db := &DB{}
	for o := 0; o < opt.Organisms; o++ {
		nv := opt.MinVertices + rng.Intn(opt.MaxVertices-opt.MinVertices+1)
		db.Seeds = append(db.Seeds, randomConnected(rng, fmt.Sprintf("seed-%d", o), nv, int(opt.EdgeFactor*float64(nv)), opt.Labels))
	}
	for i := 0; i < opt.NumGraphs; i++ {
		fam := i % opt.Organisms
		g := mutate(rng, db.Seeds[fam], opt.Mutations, opt.Labels)
		g = g.Rename(fmt.Sprintf("g%04d-f%d", i, fam))
		pg, err := probabilize(g, opt, rng)
		if err != nil {
			return nil, fmt.Errorf("dataset: graph %d: %w", i, err)
		}
		db.Graphs = append(db.Graphs, pg)
		db.Organism = append(db.Organism, fam)
	}
	return db, nil
}

// randomConnected builds a connected labeled graph: a random spanning tree
// plus extra random edges up to ne.
func randomConnected(rng *rand.Rand, name string, nv, ne int, labels int) *graph.Graph {
	b := graph.NewBuilder(name)
	for i := 0; i < nv; i++ {
		b.AddVertex(cogLabel(rng.Intn(labels)))
	}
	perm := rng.Perm(nv)
	for i := 1; i < nv; i++ {
		u := graph.VertexID(perm[i])
		v := graph.VertexID(perm[rng.Intn(i)])
		b.MustAddEdge(u, v, "")
	}
	for tries, added := 0, nv-1; added < ne && tries < 30*ne; tries++ {
		u := graph.VertexID(rng.Intn(nv))
		v := graph.VertexID(rng.Intn(nv))
		if u == v {
			continue
		}
		if _, err := b.AddEdge(u, v, ""); err == nil {
			added++
		}
	}
	return b.Build()
}

// cogLabel renders COG-style functional category labels (C0, C1, …).
func cogLabel(i int) graph.Label {
	return graph.Label(fmt.Sprintf("C%d", i))
}

// mutate perturbs a seed graph: rewires a fraction of edges and relabels a
// few vertices, keeping the graph connected when possible.
func mutate(rng *rand.Rand, seed *graph.Graph, rate float64, labels int) *graph.Graph {
	nv := seed.NumVertices()
	b := graph.NewBuilder(seed.Name() + "-mut")
	for v := 0; v < nv; v++ {
		l := seed.VertexLabel(graph.VertexID(v))
		if rng.Float64() < rate/4 {
			l = cogLabel(rng.Intn(labels))
		}
		b.AddVertex(l)
	}
	for _, e := range seed.Edges() {
		if rng.Float64() < rate {
			// Rewire: random new endpoint pair.
			for tries := 0; tries < 10; tries++ {
				u := graph.VertexID(rng.Intn(nv))
				v := graph.VertexID(rng.Intn(nv))
				if u == v {
					continue
				}
				if _, err := b.AddEdge(u, v, e.Label); err == nil {
					break
				}
			}
			continue
		}
		// Keep (ignore rare duplicate clashes with rewired edges).
		b.AddEdge(e.U, e.V, e.Label) //nolint:errcheck
	}
	return b.Build()
}

// probabilize attaches edge probabilities and JPTs to a deterministic
// graph. Edge probabilities are Beta-shaped around opt.MeanProb. Correlated
// mode partitions edges into neighbor-edge sets (size ≤ opt.MaxGroup, each a
// star at a common vertex) and applies the paper's max-rule joint; the
// independent mode gives each edge its own table.
func probabilize(g *graph.Graph, opt PPIOptions, rng *rand.Rand) (*prob.PGraph, error) {
	probs := make([]float64, g.NumEdges())
	for e := range probs {
		probs[e] = betaish(rng, opt.MeanProb)
	}
	if !opt.Correlated {
		m := make(map[graph.EdgeID]float64, len(probs))
		for e, p := range probs {
			m[graph.EdgeID(e)] = p
		}
		return prob.NewIndependent(g, m)
	}
	groups := GroupNeighborEdges(g, opt.MaxGroup)
	jpts := make([]prob.JPT, 0, len(groups))
	for _, grp := range groups {
		j := MaxRuleJPT(grp, probs)
		if opt.CorrelationBoost > 0 {
			j.P[0] *= 1 + opt.CorrelationBoost
			j.P[len(j.P)-1] *= 1 + opt.CorrelationBoost
			j.Normalize()
		}
		jpts = append(jpts, j)
	}
	return prob.New(g, jpts)
}

// GroupNeighborEdges partitions the edge set into neighbor-edge sets: for
// each vertex in order, its still-unassigned incident edges are grouped in
// chunks of at most maxGroup (each chunk shares the vertex, satisfying
// Definition 1). Every edge lands in exactly one group, so the factor
// product is automatically normalized (Z = 1).
func GroupNeighborEdges(g *graph.Graph, maxGroup int) [][]graph.EdgeID {
	assigned := make([]bool, g.NumEdges())
	var groups [][]graph.EdgeID
	for v := 0; v < g.NumVertices(); v++ {
		var cur []graph.EdgeID
		for _, h := range g.Neighbors(graph.VertexID(v)) {
			if assigned[h.Edge] {
				continue
			}
			assigned[h.Edge] = true
			cur = append(cur, h.Edge)
			if len(cur) == maxGroup {
				groups = append(groups, cur)
				cur = nil
			}
		}
		if len(cur) > 0 {
			groups = append(groups, cur)
		}
	}
	return groups
}

// MaxRuleJPT builds the paper's experimental joint for one neighbor-edge
// set: weight(x_ne) = max_i Pr(x_i) where Pr(x_i) is p_e when edge e is
// assigned 1 and 1−p_e when assigned 0, normalized over the 2^k rows.
func MaxRuleJPT(edges []graph.EdgeID, probs []float64) prob.JPT {
	k := len(edges)
	tab := make([]float64, 1<<k)
	for m := 0; m < 1<<k; m++ {
		best := 0.0
		for i, e := range edges {
			p := probs[e]
			if m&(1<<i) == 0 {
				p = 1 - p
			}
			if p > best {
				best = p
			}
		}
		tab[m] = best
	}
	j := prob.JPT{Edges: append([]graph.EdgeID(nil), edges...), P: tab}
	j.Normalize()
	return j
}

// betaish samples a probability with the given mean using a two-point
// mixture of Beta-like humps (cheap stand-in for STRING's score shape).
func betaish(rng *rand.Rand, mean float64) float64 {
	// Triangular-ish: mean + noise, clamped away from {0,1}.
	p := mean + 0.35*(rng.Float64()+rng.Float64()-1)
	if p < 0.05 {
		p = 0.05
	}
	if p > 0.95 {
		p = 0.95
	}
	return p
}

// ExtractQuery carves a connected query of the requested edge count out of
// a certain graph by growing a random edge-BFS frontier (the paper extracts
// query sets q50…q250 the same way, scaled down here).
func ExtractQuery(g *graph.Graph, edges int, rng *rand.Rand) *graph.Graph {
	if g.NumEdges() == 0 || edges <= 0 {
		return graph.NewBuilder("q-empty").Build()
	}
	if edges > g.NumEdges() {
		edges = g.NumEdges()
	}
	// Start from a random edge; grow by edges adjacent to visited vertices.
	start := graph.EdgeID(rng.Intn(g.NumEdges()))
	chosen := map[graph.EdgeID]bool{start: true}
	visited := map[graph.VertexID]bool{g.Edge(start).U: true, g.Edge(start).V: true}
	for len(chosen) < edges {
		// Walk visited vertices in sorted order: ranging over the map
		// would let Go's randomized iteration order reorder the frontier
		// and derail the rng draws, making extraction nondeterministic
		// across processes even for a fixed seed.
		vs := make([]graph.VertexID, 0, len(visited))
		for v := range visited {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		var frontier []graph.EdgeID
		for _, v := range vs {
			for _, h := range g.Neighbors(v) {
				if !chosen[h.Edge] {
					frontier = append(frontier, h.Edge)
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		e := frontier[rng.Intn(len(frontier))]
		chosen[e] = true
		visited[g.Edge(e).U] = true
		visited[g.Edge(e).V] = true
	}
	ids := make([]graph.EdgeID, 0, len(chosen))
	for e := range chosen {
		ids = append(ids, e)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	q := g.EdgeSubgraph(ids).DropIsolated()
	return q.Rename(fmt.Sprintf("q%d", q.NumEdges()))
}

// PaperFigure1 reconstructs the running example: probabilistic graphs 001
// and 002 and the query q. Graph 002 carries two JPTs sharing edge e3
// exactly as in the figure (rows not printed in the paper are filled
// uniformly and normalized).
func PaperFigure1() (g001, g002 *prob.PGraph, q *graph.Graph, err error) {
	// Graph 001: triangle a-b-d with one 3-edge JPT (all rows printed).
	b1 := graph.NewBuilder("001")
	a := b1.AddVertex("a")
	bb := b1.AddVertex("b")
	d := b1.AddVertex("d")
	e1 := b1.MustAddEdge(a, bb, "")
	e2 := b1.MustAddEdge(bb, d, "")
	e3 := b1.MustAddEdge(a, d, "")
	tab1 := make([]float64, 8)
	set := func(tab []float64, bits [3]int, p float64) {
		tab[bits[0]|bits[1]<<1|bits[2]<<2] = p
	}
	set(tab1, [3]int{1, 1, 1}, 0.2)
	set(tab1, [3]int{1, 1, 0}, 0.2)
	set(tab1, [3]int{1, 0, 1}, 0.1)
	set(tab1, [3]int{1, 0, 0}, 0.1)
	set(tab1, [3]int{0, 1, 1}, 0.1)
	set(tab1, [3]int{0, 1, 0}, 0.1)
	set(tab1, [3]int{0, 0, 1}, 0.1)
	set(tab1, [3]int{0, 0, 0}, 0.1)
	g001, err = prob.New(b1.Build(), []prob.JPT{{Edges: []graph.EdgeID{e1, e2, e3}, P: tab1}})
	if err != nil {
		return nil, nil, nil, err
	}

	// Graph 002: 5 edges over labels (a,a,b,b,c). The JPT scopes force the
	// topology: {e1,e2,e3} must be neighbor edges (common vertex a2) and
	// {e3,e4,e5} likewise (common vertex b2). JPT1 carries the printed rows
	// Pr(1,1,1)=0.3, Pr(0,1,1)=0.3 (rest uniform over the remaining mass);
	// JPT2 carries Pr(1,1,0)=0.25, Pr(1,1,1)=0.15 (rest uniform).
	b2 := graph.NewBuilder("002")
	a1 := b2.AddVertex("a")
	a2 := b2.AddVertex("a")
	v1 := b2.AddVertex("b")
	v2 := b2.AddVertex("b")
	c := b2.AddVertex("c")
	f1 := b2.MustAddEdge(a1, a2, "") // e1: a1-a2
	f2 := b2.MustAddEdge(a2, v1, "") // e2: a2-b1
	f3 := b2.MustAddEdge(a2, v2, "") // e3: a2-b2
	f4 := b2.MustAddEdge(v1, v2, "") // e4: b1-b2
	f5 := b2.MustAddEdge(v2, c, "")  // e5: b2-c
	tab2 := make([]float64, 8)
	rest1 := (1.0 - 0.3 - 0.3) / 6
	for m := range tab2 {
		tab2[m] = rest1
	}
	set(tab2, [3]int{1, 1, 1}, 0.3)
	set(tab2, [3]int{0, 1, 1}, 0.3)
	tab3 := make([]float64, 8)
	rest2 := (1.0 - 0.25 - 0.15) / 6
	for m := range tab3 {
		tab3[m] = rest2
	}
	set(tab3, [3]int{1, 1, 0}, 0.25)
	set(tab3, [3]int{1, 1, 1}, 0.15)
	g002, err = prob.New(b2.Build(), []prob.JPT{
		{Edges: []graph.EdgeID{f1, f2, f3}, P: tab2},
		{Edges: []graph.EdgeID{f3, f4, f5}, P: tab3},
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// Query q: the same shape as 002's certain graph (Example 1 relaxes it
	// by one edge to match the worlds of 002).
	qb := graph.NewBuilder("q")
	qa1 := qb.AddVertex("a")
	qa2 := qb.AddVertex("a")
	qb1 := qb.AddVertex("b")
	qb2 := qb.AddVertex("b")
	qc := qb.AddVertex("c")
	qb.MustAddEdge(qa1, qa2, "")
	qb.MustAddEdge(qa2, qb1, "")
	qb.MustAddEdge(qa2, qb2, "")
	qb.MustAddEdge(qb1, qb2, "")
	qb.MustAddEdge(qb2, qc, "")
	return g001, g002, qb.Build(), nil
}

// GenerateRoadGrid builds a road-network-flavored probabilistic graph: an
// n×m grid whose vertices are labeled by zone and whose neighbor-edge JPTs
// encode "congestion spreads to adjacent segments" — within a group, the
// all-present and all-absent rows get boosted mass (positively correlated
// traffic), matching the paper's road-network motivation [16].
func GenerateRoadGrid(n, m int, meanProb, boost float64, rng *rand.Rand) (*prob.PGraph, error) {
	b := graph.NewBuilder(fmt.Sprintf("grid-%dx%d", n, m))
	id := func(i, j int) graph.VertexID { return graph.VertexID(i*m + j) }
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			zone := "suburb"
			if i > 0 && i < n-1 && j > 0 && j < m-1 {
				zone = "center" // interior vertices form the city center
			}
			b.AddVertex(graph.Label(zone))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if i+1 < n {
				b.MustAddEdge(id(i, j), id(i+1, j), "road")
			}
			if j+1 < m {
				b.MustAddEdge(id(i, j), id(i, j+1), "road")
			}
		}
	}
	g := b.Build()
	probs := make([]float64, g.NumEdges())
	for e := range probs {
		probs[e] = betaish(rng, meanProb)
	}
	groups := GroupNeighborEdges(g, 3)
	jpts := make([]prob.JPT, 0, len(groups))
	for _, grp := range groups {
		j := MaxRuleJPT(grp, probs)
		// Congestion correlation: boost the all-or-nothing rows.
		j.P[0] *= 1 + boost
		j.P[len(j.P)-1] *= 1 + boost
		j.Normalize()
		jpts = append(jpts, j)
	}
	return prob.New(g, jpts)
}

// IndependentCounterpart returns a database over the same certain graphs
// whose edges exist independently with the correlated model's *marginal*
// probabilities. This is the clean IND baseline for the paper's Figure 14
// comparison: identical marginals, correlations dropped — any quality gap
// is attributable to correlation alone.
func IndependentCounterpart(db *DB) (*DB, error) {
	out := &DB{Organism: append([]int(nil), db.Organism...), Seeds: db.Seeds}
	for gi, pg := range db.Graphs {
		eng, err := prob.NewEngine(pg)
		if err != nil {
			return nil, fmt.Errorf("dataset: graph %d: %w", gi, err)
		}
		m := make(map[graph.EdgeID]float64, pg.NumUncertain())
		for _, e := range pg.UncertainEdges() {
			p, err := eng.MarginalPresent(e)
			if err != nil {
				return nil, fmt.Errorf("dataset: graph %d edge %d: %w", gi, e, err)
			}
			m[e] = p
		}
		ind, err := prob.NewIndependent(pg.G, m)
		if err != nil {
			return nil, fmt.Errorf("dataset: graph %d: %w", gi, err)
		}
		out.Graphs = append(out.Graphs, ind)
	}
	return out, nil
}

// Mean returns the average of xs (0 for empty input); a shared helper for
// the stats-reporting CLIs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanEdgeProb reports the average marginal edge probability of a database
// (diagnostic matching the paper's "each edge has an average value of 0.383
// existence probability").
func MeanEdgeProb(db *DB) (float64, error) {
	var vals []float64
	for _, pg := range db.Graphs {
		eng, err := prob.NewEngine(pg)
		if err != nil {
			return 0, err
		}
		for _, e := range pg.UncertainEdges() {
			p, err := eng.MarginalPresent(e)
			if err != nil {
				return 0, err
			}
			vals = append(vals, p)
		}
	}
	if len(vals) == 0 {
		return 0, nil
	}
	return Mean(vals), nil
}
