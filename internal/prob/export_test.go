package prob

import (
	"math"
	"math/rand"
	"slices"

	"probgraph/internal/graph"
)

// RefEngine hands the reference engine of engine_ref_test.go to this
// directory's external tests, which need packages that import prob
// (dataset for PPI-like graphs, verify for SMP).
type RefEngine = refEngine

// NewRefEngine builds a reference engine for pg with no evidence.
func NewRefEngine(pg *PGraph) (*RefEngine, error) { return newRefEngine(pg) }

// RefLiteral is the reference engine's evidence: an edge asserted present
// or absent.
type RefLiteral = refLiteral

// RefPresent returns literals asserting every edge of edges present: what
// the compiled engine's edge lists mean.
func RefPresent(edges []graph.EdgeID) []RefLiteral {
	lits := make([]RefLiteral, len(edges))
	for i, ed := range edges {
		lits[i] = RefLiteral{Edge: ed, Present: true}
	}
	return lits
}

// Drawn returns the variables w decided since its last Reset — drawn, or
// pinned and read — in that order.
func (w *LazyWorld) Drawn() []int32 { return w.touched }

// Parents returns variable v's parents in the schedule's DAG: the outputs of
// the step that sums it out.
func (e *Engine) Parents(v int32) []int32 { return e.sched.outputs(int(e.sched.stepOf[v])) }

// Pinned reports whether e's evidence fixes variable v.
func (e *Engine) Pinned(v int32) bool { return e.pin[v] }

// EliminationOrder returns the variables in the order the schedule sums
// them out.
func (e *Engine) EliminationOrder() []int32 {
	order := make([]int32, len(e.sched.stepOf))
	for v, s := range e.sched.stepOf {
		order[s] = int32(v)
	}
	return order
}

// Rank returns the place of variable v's step among its component's steps,
// the bit it takes in a memo key (255 from the 255th on).
func (e *Engine) Rank(v int32) int { return int(e.sched.rank[e.sched.stepOf[v]]) }

// VarOf returns edge ed's variable, -1 for a certain edge.
func (pg *PGraph) VarOf(ed graph.EdgeID) int32 { return pg.varOf[ed] }

// ProbLitsSteps is ProbLits, also returning the steps the call recomputed in
// ascending order.
func (e *Engine) ProbLitsSteps(edges []graph.EdgeID) (float64, []int32, error) {
	if e.z == 0 {
		p, err := e.ProbLits(edges)
		return p, nil, err
	}
	var sc litScratch
	var p [1]float64
	e.probLits([][]graph.EdgeID{edges}, p[:], &sc)
	return p[0], slices.Clone(sc.dirty), nil
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
// eliminating (no clause, or a certain one).
func (e *Engine) EliminationCost(clauses [][]graph.EdgeID) int {
	var s elimScratch
	if len(clauses) == 0 || s.factors(e, clauses, math.MaxInt) != modelReady {
		return -1
	}
	s.order(math.MaxInt)
	return s.cost()
}

// EliminationSteps returns the plan ProbNoClause compiles for clauses, per
// step: its width, and the arity of each factor it multiplies in — 0 for a
// table, a JPT or an earlier step's, and k for a clause over k variables.
// It returns nil when the call decides without eliminating.
func (e *Engine) EliminationSteps(clauses [][]graph.EdgeID) (width []int, inputs [][]int) {
	var s elimScratch
	if len(clauses) == 0 || s.factors(e, clauses, math.MaxInt) != modelReady {
		return nil, nil
	}
	s.order(math.MaxInt)
	s.cost()
	s.layout()
	k, nj := len(s.vars), len(s.jpts)
	width, inputs = make([]int, k), make([][]int, k)
	for st := range k {
		width[st] = 1 + int(s.off[s.nf+st+1]-s.off[s.nf+st])
		for _, f := range s.inputs[s.inOff[st]:s.inOff[st+1]] {
			arity := 0
			if int(f) >= nj && int(f) < s.nf {
				arity = int(s.off[f+1] - s.off[f])
			}
			inputs[st] = append(inputs[st], arity)
		}
	}
	return width, inputs
}

// ProbNoClauseWith is ProbNoClause with each clause factor applied by zero
// instead of the kernel's own.
func (e *Engine) ProbNoClauseWith(clauses [][]graph.EdgeID, budget int, zero func(w0, w1 []float64, put []int, self int)) (float64, bool, error) {
	return e.probNoClause(clauses, budget, zero)
}

// ZeroWhereHolds is the clause factor ProbNoClause applies.
var ZeroWhereHolds = zeroWhereHolds

// RandomPGraph hands randomPGraph's correlated models, some of whose tables
// share an edge, to this directory's external tests.
func RandomPGraph(rng *rand.Rand, nv, ne int) *PGraph { return randomPGraph(rng, nv, ne) }
