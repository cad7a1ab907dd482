// Package prob implements the correlated probabilistic graph model of the
// paper (Definition 2): a deterministic graph gc plus joint probability
// tables (JPTs) over neighbor-edge sets, together with an exact inference
// engine (variable elimination / junction-tree style) that supplies
// partition functions, conjunction probabilities, marginals, and exact
// possible-world sampling — including sampling conditioned on evidence,
// which the paper's Algorithm 5 requires.
//
// Evidence and clauses are lists of edges that must all be present
// (PresentClauses builds them ascending): the paper's verification only
// ever asserts that an embedding's edges exist. A certain edge, or an edge
// listed twice or already pinned, asserts nothing more, so no list can
// contradict itself or an engine's evidence. A clause is priced in one
// place, Engine.ProbLitsBatch; ProbLits is it over one clause.
//
// Semantics. The distribution over possible worlds is the normalized product
// of the JPT factors (a Markov random field). When JPTs partition the edge
// set and each table is normalized — the construction used by the paper's
// experiments and by our dataset generators — the normalizer is exactly 1
// and the model coincides with the paper's Equation 1. JPTs that share
// edges (as in the paper's Figure 1) are fully supported; the engine
// normalizes automatically.
package prob

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"probgraph/internal/graph"
)

// MaxJPTEdges bounds the arity of one joint probability table. Neighbor-edge
// sets are local by construction, so this is generous.
const MaxJPTEdges = 16

// JPT is a joint probability table over a small set of edges. Entry P[m]
// is the (possibly unnormalized) weight of the assignment in which edge
// Edges[i] exists iff bit i of m is set.
type JPT struct {
	Edges []graph.EdgeID
	P     []float64
}

// NewIndependentJPT returns the 1-edge table {1-p, p}.
func NewIndependentJPT(e graph.EdgeID, p float64) JPT {
	return JPT{Edges: []graph.EdgeID{e}, P: []float64{1 - p, p}}
}

// Validate checks structural well-formedness of the table.
func (t JPT) Validate(numEdges int) error {
	k := len(t.Edges)
	if k == 0 {
		return fmt.Errorf("prob: empty JPT")
	}
	if k > MaxJPTEdges {
		return fmt.Errorf("prob: JPT over %d edges exceeds limit %d", k, MaxJPTEdges)
	}
	if len(t.P) != 1<<k {
		return fmt.Errorf("prob: JPT over %d edges needs %d entries, has %d", k, 1<<k, len(t.P))
	}
	seen := make(map[graph.EdgeID]bool, k)
	sum := 0.0
	for _, e := range t.Edges {
		if e < 0 || int(e) >= numEdges {
			return fmt.Errorf("prob: JPT references edge %d outside graph (have %d edges)", e, numEdges)
		}
		if seen[e] {
			return fmt.Errorf("prob: JPT lists edge %d twice", e)
		}
		seen[e] = true
	}
	for i, p := range t.P {
		if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
			return fmt.Errorf("prob: JPT entry %d has invalid weight %v", i, p)
		}
		sum += p
	}
	if sum <= 0 {
		return fmt.Errorf("prob: JPT has zero total weight")
	}
	return nil
}

// Normalize scales the table to sum to 1 in place.
func (t JPT) Normalize() {
	sum := 0.0
	for _, p := range t.P {
		sum += p
	}
	if sum > 0 {
		for i := range t.P {
			t.P[i] /= sum
		}
	}
}

// PGraph is a probabilistic graph: a certain structure G plus JPT factors.
// Edges not covered by any JPT are certain (exist in every possible world).
type PGraph struct {
	G    *graph.Graph
	JPTs []JPT

	uncertain []graph.EdgeID // covered edges, ascending
	varOf     []int32        // edge -> index into uncertain, -1 when certain
}

// New validates and assembles a probabilistic graph.
func New(g *graph.Graph, jpts []JPT) (*PGraph, error) {
	if g == nil {
		return nil, fmt.Errorf("prob: nil graph")
	}
	covered := graph.NewEdgeSet(g.NumEdges())
	for i, t := range jpts {
		if err := t.Validate(g.NumEdges()); err != nil {
			return nil, fmt.Errorf("prob: JPT %d: %w", i, err)
		}
		for _, e := range t.Edges {
			covered.Add(e)
		}
	}
	// JPTs is a right-sized copy: decoders build jpts by append, and a
	// database keeps every PGraph it was ever given.
	pg := &PGraph{G: g, JPTs: slices.Clone(jpts), uncertain: covered.Slice(), varOf: make([]int32, g.NumEdges())}
	for e := range pg.varOf {
		pg.varOf[e] = -1
	}
	for v, e := range pg.uncertain {
		pg.varOf[e] = int32(v)
	}
	return pg, nil
}

// variable returns e's index among the uncertain edges, or -1 when e is
// certain or no edge of G.
func (pg *PGraph) variable(e graph.EdgeID) int {
	if e < 0 || int(e) >= len(pg.varOf) {
		return -1
	}
	return int(pg.varOf[e])
}

// MustNew is New for static construction; it panics on error.
func MustNew(g *graph.Graph, jpts []JPT) *PGraph {
	pg, err := New(g, jpts)
	if err != nil {
		panic(err)
	}
	return pg
}

// NewIndependent builds a probabilistic graph where each listed edge exists
// independently with the given probability; this is the baseline "IND"
// model the paper compares against in Figure 14.
func NewIndependent(g *graph.Graph, edgeProb map[graph.EdgeID]float64) (*PGraph, error) {
	jpts := make([]JPT, 0, len(edgeProb))
	for e := 0; e < g.NumEdges(); e++ {
		if p, ok := edgeProb[graph.EdgeID(e)]; ok {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("prob: edge %d probability %v out of [0,1]", e, p)
			}
			jpts = append(jpts, NewIndependentJPT(graph.EdgeID(e), p))
		}
	}
	return New(g, jpts)
}

// NumUncertain returns the number of edges with uncertain existence.
func (pg *PGraph) NumUncertain() int { return len(pg.uncertain) }

// UncertainEdges returns the uncertain edge IDs in ascending order. The
// returned slice must not be modified.
func (pg *PGraph) UncertainEdges() []graph.EdgeID { return pg.uncertain }

// IsUncertain reports whether edge e is covered by some JPT.
func (pg *PGraph) IsUncertain(e graph.EdgeID) bool { return pg.variable(e) >= 0 }

// NewWorld returns a world with all certain edges present and all uncertain
// edges absent.
func (pg *PGraph) NewWorld() graph.EdgeSet {
	w := graph.FullEdgeSet(pg.G.NumEdges())
	for _, e := range pg.uncertain {
		w.Remove(e)
	}
	return w
}

// IsNeighborEdgeSet reports whether the edges form a neighbor-edge set per
// the paper's Definition 1: all incident to one common vertex, or forming a
// triangle. The generators build their scopes with
// dataset.GroupNeighborEdges, and tests check those scopes with it; the
// engine itself accepts arbitrary scopes.
func IsNeighborEdgeSet(g *graph.Graph, edges []graph.EdgeID) bool {
	if len(edges) == 0 {
		return false
	}
	if len(edges) == 1 {
		return true
	}
	// Common vertex?
	count := make(map[graph.VertexID]int)
	for _, id := range edges {
		e := g.Edge(id)
		count[e.U]++
		count[e.V]++
	}
	for _, c := range count {
		if c == len(edges) {
			return true
		}
	}
	// Triangle: exactly 3 edges over exactly 3 vertices, each vertex twice.
	if len(edges) == 3 && len(count) == 3 {
		for _, c := range count {
			if c != 2 {
				return false
			}
		}
		return true
	}
	return false
}

// PresentClauses returns each set's edges in ascending order, the lists
// sharing one slab: a DNF's clauses in two allocations.
func PresentClauses(sets []graph.EdgeSet) [][]graph.EdgeID {
	size := 0
	for _, s := range sets {
		size += s.Count()
	}
	slab := make([]graph.EdgeID, 0, size)
	clauses := make([][]graph.EdgeID, len(sets))
	for i, s := range sets {
		start := len(slab)
		for wi, w := range s.Words() {
			for ; w != 0; w &= w - 1 {
				slab = append(slab, graph.EdgeID(64*wi+bits.TrailingZeros64(w)))
			}
		}
		clauses[i] = slab[start:len(slab):len(slab)]
	}
	return clauses
}
