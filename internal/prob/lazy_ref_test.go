package prob

import (
	"slices"

	"probgraph/internal/graph"
)

// refLazyWorld is LazyWorld written against the reference engine's recorded
// steps: a variable's parents are the other variables of the factors its
// step multiplied, drawn in ascending order before it, and its weights are
// the products SampleWorldInto forms. TestSMPMatchesReference holds
// verify.SMP to a sampler built on it, so the compiled schedule's stepOf and
// step outputs are checked against an elimination they were not derived
// from.
type refLazyWorld struct {
	e       *refEngine
	varOf   map[graph.EdgeID]int
	stepOf  []int   // variable → index into e.steps
	parents [][]int // variable → its step's other variables, ascending
	assign  []bool
	drawn   []bool // decided: drawn, or pinned and read
}

// NewLazyWorld returns an empty world of e's distribution.
func (e *refEngine) NewLazyWorld() *refLazyWorld {
	n := len(e.pg.uncertain)
	w := &refLazyWorld{e: e, varOf: e.pg.refVarOf(), stepOf: make([]int, n), parents: make([][]int, n),
		assign: make([]bool, n), drawn: make([]bool, n)}
	for s, st := range e.steps {
		w.stepOf[st.v] = s
		for _, f := range st.factors {
			for _, u := range f.vars {
				if u != st.v && !slices.Contains(w.parents[st.v], u) {
					w.parents[st.v] = append(w.parents[st.v], u)
				}
			}
		}
		slices.Sort(w.parents[st.v])
	}
	return w
}

// Reset starts the next world of e, which must share the world's
// elimination order (the compiled engine's rule 1).
func (w *refLazyWorld) Reset(e *refEngine) {
	w.e = e
	clear(w.drawn)
}

// Present reports whether edge ed exists in the world.
func (w *refLazyWorld) Present(rng *SplitMix, ed graph.EdgeID) bool {
	v, ok := w.varOf[ed]
	return !ok || w.draw(rng, v)
}

// KnownAbsent reports whether edge ed has been decided absent.
func (w *refLazyWorld) KnownAbsent(ed graph.EdgeID) bool {
	v, ok := w.varOf[ed]
	return ok && w.drawn[v] && !w.assign[v]
}

func (w *refLazyWorld) draw(rng *SplitMix, v int) bool {
	if w.drawn[v] {
		return w.assign[v]
	}
	w.drawn[v] = true
	if val, pinned := w.e.evidence[v]; pinned {
		w.assign[v] = val
		return val
	}
	for _, u := range w.parents[v] {
		w.draw(rng, u)
	}
	st := w.e.steps[w.stepOf[v]]
	w.assign[v] = false
	w0 := 1.0
	for _, f := range st.factors {
		w0 *= f.eval(w.assign)
	}
	w.assign[v] = true
	w1 := 1.0
	for _, f := range st.factors {
		w1 *= f.eval(w.assign)
	}
	total := w0 + w1
	w.assign[v] = total > 0 && rng.Float64()*total < w1
	return w.assign[v]
}
