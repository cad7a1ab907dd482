package prob

import (
	"math"
	"math/rand"

	"probgraph/internal/graph"
)

// RefEngine hands the reference engine of engine_ref_test.go to this
// directory's external tests, which need packages that import prob
// (dataset for PPI-like graphs, verify for SMP).
type RefEngine = refEngine

// NewRefEngine builds a reference engine for pg with no evidence.
func NewRefEngine(pg *PGraph) (*RefEngine, error) { return newRefEngine(pg) }

// Drawn returns the variables w decided since its last Reset — drawn, or
// pinned and read — in that order.
func (w *LazyWorld) Drawn() []int32 { return w.touched }

// Parents returns variable v's parents in the schedule's DAG: the outputs of
// the step that sums it out.
func (e *Engine) Parents(v int32) []int32 { return e.sched.outputs(int(e.sched.stepOf[v])) }

// Pinned reports whether e's evidence fixes variable v.
func (e *Engine) Pinned(v int32) bool { return e.pin[v] != pinFree }

// EliminationOrder returns the variables in the order the schedule sums
// them out.
func (e *Engine) EliminationOrder() []int32 {
	order := make([]int32, len(e.sched.stepOf))
	for v, s := range e.sched.stepOf {
		order[s] = int32(v)
	}
	return order
}

// VarOf returns edge ed's variable, -1 for a certain edge.
func (pg *PGraph) VarOf(ed graph.EdgeID) int32 { return pg.varOf[ed] }

// ProbLitsSteps is ProbLits, also returning the steps the call recomputed in
// ascending order (none when the literals cannot hold).
func (e *Engine) ProbLitsSteps(lits []Literal) (float64, []int32, error) {
	if e.z == 0 {
		p, err := e.ProbLits(lits)
		return p, nil, err
	}
	var sc litScratch
	p := e.probLits(lits, &sc)
	var steps []int32
	for s, o := range sc.at {
		if o >= 0 {
			steps = append(steps, int32(s))
		}
	}
	return p, steps, nil
}

// OwnSteps returns the steps whose tables e computed and holds itself, in
// ascending order: every step for an unconditioned engine, the dirty path
// for one from NewConditioned.
func (e *Engine) OwnSteps() []int32 {
	var out []int32
	for s, o := range e.at {
		if o >= 0 {
			out = append(out, int32(s))
		}
	}
	return out
}

// EliminationCost returns the cost ProbNoClause compiles for clauses before
// it compares it with its budget, or -1 when the call decides without
// eliminating (a certain clause, or no clause that can hold).
func (e *Engine) EliminationCost(clauses [][]Literal) int {
	var s elimScratch
	if s.factors(e, clauses, math.MaxInt) != modelReady || len(s.pats) == 0 {
		return -1
	}
	s.order(math.MaxInt)
	return s.cost()
}

// RandomPGraph hands randomPGraph's correlated models, some of whose tables
// share an edge, to this directory's external tests.
func RandomPGraph(rng *rand.Rand, nv, ne int) *PGraph { return randomPGraph(rng, nv, ne) }
