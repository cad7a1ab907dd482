package prob

import (
	"fmt"
	"math/rand"
	"sort"

	"probgraph/internal/graph"
)

// The inference engine as it stood before it was compiled (ISSUE 20), moved
// here verbatim apart from the ref prefix on its names and refVarOf standing
// in for the edge → variable map PGraph used to carry: map-based variable
// elimination re-run per evidence set, recorded steps replayed for sampling.
// It is the oracle the compiled Engine is held to, bit for bit, by
// engine_parity_test.go; nothing outside tests may use it.

// refLiteral asserts one edge present or absent. The compiled engine
// conditions only on present edges; the reference keeps both polarities, so
// that tests can check the lazy draw's absent values against it.
type refLiteral struct {
	Edge    graph.EdgeID
	Present bool
}

// refVarOf rebuilds the map form of PGraph.varOf the reference engine reads.
func (pg *PGraph) refVarOf() map[graph.EdgeID]int {
	m := make(map[graph.EdgeID]int, len(pg.uncertain))
	for v, e := range pg.uncertain {
		m[e] = v
	}
	return m
}

// refFactor is a table over a sorted list of engine variables. tab[m] is the
// weight of the assignment where variable vars[i] is true iff bit i of m is
// set.
type refFactor struct {
	vars []int
	tab  []float64
}

// eval returns the refFactor's value under a global assignment.
func (f *refFactor) eval(assign []bool) float64 {
	idx := 0
	for i, v := range f.vars {
		if assign[v] {
			idx |= 1 << i
		}
	}
	return f.tab[idx]
}

// refElimStep records the factors combined when one variable was summed out;
// replayed in reverse for exact backward sampling.
type refElimStep struct {
	v       int
	factors []*refFactor
}

// refEngine performs exact inference over a PGraph, optionally with evidence
// baked in. Construction runs one recorded variable-elimination pass; each
// subsequent SampleWorld is a cheap backward pass. After construction an
// refEngine is immutable, so concurrent queries and sampling are safe provided
// each goroutine supplies its own rng and scratch buffers (QueryBatchCtx and
// the PMI builder rely on this).
type refEngine struct {
	pg       *PGraph
	evidence map[int]bool // variable -> forced value
	steps    []refElimStep
	z        float64
	zFull    float64       // partition function of the unconditioned model
	template graph.EdgeSet // certain-edges-only world, built lazily
}

// newRefEngine builds a reference engine for pg with no evidence.
func newRefEngine(pg *PGraph) (*refEngine, error) {
	return newRefEngineWith(pg, nil, 0)
}

// NewConditioned builds an engine whose distribution is pg's conditioned on
// the given literals. SampleWorld then draws worlds consistent with the
// evidence; Z returns the evidence probability mass times the base Z.
func (e *refEngine) NewConditioned(lits []refLiteral) (*refEngine, error) {
	ev := make(map[int]bool, len(lits))
	for _, l := range lits {
		v, ok := e.pg.refVarOf()[l.Edge]
		if !ok {
			if l.Present {
				continue // certain edge asserted present: vacuous
			}
			return nil, fmt.Errorf("prob: evidence asserts certain edge %d absent", l.Edge)
		}
		if prev, dup := ev[v]; dup && prev != l.Present {
			return nil, fmt.Errorf("prob: contradictory evidence on edge %d", l.Edge)
		}
		ev[v] = l.Present
	}
	return newRefEngineWith(e.pg, ev, e.zFull)
}

func newRefEngineWith(pg *PGraph, evidence map[int]bool, zFull float64) (*refEngine, error) {
	e := &refEngine{pg: pg, evidence: evidence}
	if err := e.eliminate(); err != nil {
		return nil, err
	}
	if zFull == 0 {
		zFull = e.z
	}
	e.zFull = zFull
	e.template = pg.NewWorld()
	return e, nil
}

// eliminate runs recorded variable elimination with a min-degree ordering.
func (e *refEngine) eliminate() error {
	n := len(e.pg.uncertain)
	// Build initial factors from JPTs, applying evidence by zeroing
	// incompatible entries (keeps refFactor shapes simple and exact).
	var factors []*refFactor
	for _, t := range e.pg.JPTs {
		f := &refFactor{vars: make([]int, len(t.Edges)), tab: append([]float64(nil), t.P...)}
		for i, ed := range t.Edges {
			f.vars[i] = e.pg.refVarOf()[ed]
		}
		factors = append(factors, f)
	}
	for v, val := range e.evidence {
		// A unit refFactor pinning the variable; also handles variables whose
		// JPTs would otherwise disagree with evidence.
		tab := []float64{1, 0}
		if val {
			tab = []float64{0, 1}
		}
		factors = append(factors, &refFactor{vars: []int{v}, tab: tab})
	}

	// Interaction structure: which factors mention each variable.
	inFactor := make([][]int, n) // var -> refFactor indices (into factors, -1 = consumed)
	for fi, f := range factors {
		for _, v := range f.vars {
			inFactor[v] = append(inFactor[v], fi)
		}
	}
	alive := make([]bool, 0, len(factors)*2)
	for range factors {
		alive = append(alive, true)
	}

	eliminated := make([]bool, n)
	for count := 0; count < n; count++ {
		// Min-degree: pick the variable whose combined refFactor has the fewest
		// distinct variables.
		best, bestW := -1, 1<<30
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			w := e.widthIfEliminated(v, factors, alive, inFactor)
			if w < bestW {
				best, bestW = v, w
			}
		}
		if bestW > MaxFactorWidth {
			return fmt.Errorf("prob: elimination width %d exceeds limit %d (model too densely coupled)", bestW, MaxFactorWidth)
		}
		v := best
		var gathered []*refFactor
		for _, fi := range inFactor[v] {
			if alive[fi] {
				gathered = append(gathered, factors[fi])
				alive[fi] = false
			}
		}
		e.steps = append(e.steps, refElimStep{v: v, factors: gathered})
		nf := refSumOut(gathered, v)
		factors = append(factors, nf)
		alive = append(alive, true)
		fi := len(factors) - 1
		for _, nv := range nf.vars {
			inFactor[nv] = append(inFactor[nv], fi)
		}
		eliminated[v] = true
	}

	// All remaining live factors are constants; their product is Z.
	z := 1.0
	for fi, f := range factors {
		if alive[fi] {
			if len(f.vars) != 0 {
				return fmt.Errorf("prob: internal: live refFactor with variables after elimination")
			}
			z *= f.tab[0]
		}
	}
	if z < 0 {
		return fmt.Errorf("prob: negative partition function")
	}
	e.z = z
	return nil
}

// widthIfEliminated returns the number of distinct variables in the union of
// live factors mentioning v.
func (e *refEngine) widthIfEliminated(v int, factors []*refFactor, alive []bool, inFactor [][]int) int {
	seen := map[int]bool{}
	for _, fi := range inFactor[v] {
		if !alive[fi] {
			continue
		}
		for _, u := range factors[fi].vars {
			seen[u] = true
		}
	}
	return len(seen)
}

// refSumOut multiplies the gathered factors and sums out v.
func refSumOut(gathered []*refFactor, v int) *refFactor {
	varSet := map[int]bool{}
	for _, f := range gathered {
		for _, u := range f.vars {
			if u != v {
				varSet[u] = true
			}
		}
	}
	outVars := make([]int, 0, len(varSet))
	for u := range varSet {
		outVars = append(outVars, u)
	}
	sort.Ints(outVars)
	out := &refFactor{vars: outVars, tab: make([]float64, 1<<len(outVars))}

	// Enumerate assignments over outVars ∪ {v}.
	pos := make(map[int]int, len(outVars))
	for i, u := range outVars {
		pos[u] = i
	}
	total := 1 << len(outVars)
	assign := make(map[int]bool, len(outVars)+1)
	for m := 0; m < total; m++ {
		for i, u := range outVars {
			assign[u] = m&(1<<i) != 0
		}
		sum := 0.0
		for _, vv := range []bool{false, true} {
			assign[v] = vv
			prod := 1.0
			for _, f := range gathered {
				idx := 0
				for i, u := range f.vars {
					if assign[u] {
						idx |= 1 << i
					}
				}
				prod *= f.tab[idx]
			}
			sum += prod
		}
		out.tab[m] = sum
	}
	return out
}

// Z returns the (unnormalized) total weight of the engine's distribution.
// For an unconditioned engine over normalized edge-disjoint JPTs this is 1.
func (e *refEngine) Z() float64 { return e.z }

// NumEdges returns the total edge count of the underlying graph.
func (e *refEngine) NumEdges() int { return e.pg.G.NumEdges() }

// NumUncertain returns the number of uncertain edge variables.
func (e *refEngine) NumUncertain() int { return len(e.pg.uncertain) }

// PGraph returns the engine's underlying probabilistic graph.
func (e *refEngine) PGraph() *PGraph { return e.pg }

// ProbEvidence returns the probability mass of this engine's evidence under
// the unconditioned model: Z(evidence)/Z(). For an unconditioned engine it
// is 1.
func (e *refEngine) ProbEvidence() float64 {
	if e.zFull == 0 {
		return 0
	}
	return e.z / e.zFull
}

// ProbLits returns the probability that all literals hold, conditioned on
// this engine's evidence.
func (e *refEngine) ProbLits(lits []refLiteral) (float64, error) {
	if e.z == 0 {
		return 0, fmt.Errorf("prob: conditioning event has zero probability")
	}
	merged := make([]refLiteral, 0, len(lits)+len(e.evidence))
	merged = append(merged, lits...)
	for v, val := range e.evidence {
		merged = append(merged, refLiteral{Edge: e.pg.uncertain[v], Present: val})
	}
	cond, err := e.condProbEngine(merged)
	if err != nil {
		return 0, err
	}
	return cond.z / e.z, nil
}

// condProbEngine builds a throwaway engine with the given evidence; it
// reuses the PGraph so construction cost is one VE pass.
func (e *refEngine) condProbEngine(lits []refLiteral) (*refEngine, error) {
	ev := make(map[int]bool, len(lits))
	for _, l := range lits {
		v, ok := e.pg.refVarOf()[l.Edge]
		if !ok {
			if l.Present {
				continue
			}
			// Certain edge asserted absent: impossible.
			return &refEngine{pg: e.pg, z: 0, zFull: e.zFull}, nil
		}
		if prev, dup := ev[v]; dup && prev != l.Present {
			return &refEngine{pg: e.pg, z: 0, zFull: e.zFull}, nil
		}
		ev[v] = l.Present
	}
	eng := &refEngine{pg: e.pg, evidence: ev, zFull: e.zFull}
	if err := eng.eliminate(); err != nil {
		return nil, err
	}
	return eng, nil
}

// MarginalPresent returns Pr(edge exists | evidence). Certain edges have
// probability 1.
func (e *refEngine) MarginalPresent(ed graph.EdgeID) (float64, error) {
	if _, ok := e.pg.refVarOf()[ed]; !ok {
		return 1, nil
	}
	return e.ProbLits([]refLiteral{{Edge: ed, Present: true}})
}

// SampleWorld draws one possible world exactly from the engine's
// distribution: backward sampling over the recorded elimination steps, then
// certain edges are added. The result is a fresh EdgeSet over all edges of G.
func (e *refEngine) SampleWorld(rng *rand.Rand) graph.EdgeSet {
	n := len(e.pg.uncertain)
	assign := make([]bool, n)
	for i := len(e.steps) - 1; i >= 0; i-- {
		st := e.steps[i]
		var w [2]float64
		for _, val := range []bool{false, true} {
			assign[st.v] = val
			prod := 1.0
			for _, f := range st.factors {
				prod *= f.eval(assign)
			}
			if val {
				w[1] = prod
			} else {
				w[0] = prod
			}
		}
		total := w[0] + w[1]
		if total <= 0 {
			assign[st.v] = false
			continue
		}
		assign[st.v] = rng.Float64()*total < w[1]
	}
	world := e.pg.NewWorld()
	for v, present := range assign {
		if present {
			world.Add(e.pg.uncertain[v])
		}
	}
	return world
}

// SampleWorldInto is SampleWorld writing into a caller-provided world (must
// have capacity for all edges of G), avoiding allocation in sampling loops.
// scratch must have capacity for NumUncertain() booleans.
func (e *refEngine) SampleWorldInto(rng *rand.Rand, world graph.EdgeSet, scratch []bool) {
	n := len(e.pg.uncertain)
	assign := scratch[:n]
	for i := range assign {
		assign[i] = false
	}
	for i := len(e.steps) - 1; i >= 0; i-- {
		st := e.steps[i]
		assign[st.v] = false
		w0 := 1.0
		for _, f := range st.factors {
			w0 *= f.eval(assign)
		}
		assign[st.v] = true
		w1 := 1.0
		for _, f := range st.factors {
			w1 *= f.eval(assign)
		}
		total := w0 + w1
		if total <= 0 {
			assign[st.v] = false
			continue
		}
		assign[st.v] = rng.Float64()*total < w1
	}
	world.CopyFrom(e.template)
	for v := 0; v < n; v++ {
		if assign[v] {
			world.Add(e.pg.uncertain[v])
		}
	}
}

// WorldProb returns the normalized probability of one fully specified world
// under the unconditioned model. Worlds missing a certain edge have
// probability zero.
func (e *refEngine) WorldProb(world graph.EdgeSet) float64 {
	if e.zFull == 0 {
		return 0
	}
	for ed := 0; ed < e.pg.G.NumEdges(); ed++ {
		if !e.pg.IsUncertain(graph.EdgeID(ed)) && !world.Contains(graph.EdgeID(ed)) {
			return 0
		}
	}
	prod := 1.0
	for _, t := range e.pg.JPTs {
		idx := 0
		for i, ed := range t.Edges {
			if world.Contains(ed) {
				idx |= 1 << i
			}
		}
		prod *= t.P[idx]
	}
	return prod / e.zFull
}
