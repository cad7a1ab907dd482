package prob

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"probgraph/internal/graph"
)

// MaxFactorWidth bounds the arity of intermediate factors during variable
// elimination. Neighbor-edge JPTs keep the effective treewidth small; if a
// pathological model exceeds this, engine construction fails rather than
// exhausting memory.
const MaxFactorWidth = 22

// schedule is variable elimination over one PGraph with the numbers taken
// out: the min-degree order, which factors each step multiplies, every
// intermediate table's variables and where the table lives in a slab. None
// of it depends on evidence (a pinned variable keeps its place, its tables
// their shapes), so it is compiled once per graph and shared by the base
// engine and every engine conditioned from it — flat, offsets into shared
// slabs, because a database holds one per graph.
//
// Factor ids: id < len(JPTs) is that JPT, read in place; id-len(JPTs) is the
// table a step produced. Bit i of a table index is the factor's i-th
// variable: a JPT's Edges order, a step's outputs ascending.
type schedule struct {
	steps    []step        // in elimination order, plus a sentinel holding the ends
	outVars  []int32       // per step, its output variables ascending
	inputs   []int32       // per step, factor ids in multiplication order
	gather   []uint8       // per input, per variable of that factor: the output bit to read, or selfBit
	stepOf   []int32       // per variable, the step that sums it out
	template graph.EdgeSet // certain-edges-only world
}

// step is one elimination: v is summed out of the product of the inputs,
// leaving a table of 1<<len(outputs) entries at offset tab of a slab half.
// outs and ins index the step's first output and input; the next step's mark
// the ends.
type step struct{ v, outs, ins, tab int32 }

// selfBit in schedule.gather marks the variable the step sums out.
const selfBit = 0xFF

// outputs returns the variables of the table step s produces.
func (sc *schedule) outputs(s int) []int32 {
	return sc.outVars[sc.steps[s].outs:sc.steps[s+1].outs]
}

// compile runs min-degree elimination symbolically: at each step the
// variable whose live factors span the fewest distinct variables goes next
// (lowest index on ties), the live factors mentioning it are consumed in
// creation order, and a factor over the remaining variables is created.
func compile(pg *PGraph) (*schedule, error) {
	n, nj := len(pg.uncertain), len(pg.JPTs)
	sc := &schedule{steps: make([]step, 1, n+1), stepOf: make([]int32, n), template: pg.NewWorld()}
	jptVars := make([][]int32, nj)
	users := make([][]int32, n) // variable → factors mentioning it, in creation order
	for f, t := range pg.JPTs {
		jptVars[f] = make([]int32, len(t.Edges))
		for i, ed := range t.Edges {
			v := pg.varOf[ed]
			jptVars[f][i] = v
			users[v] = append(users[v], int32(f))
		}
	}
	scope := func(f int32) []int32 {
		if int(f) < nj {
			return jptVars[f]
		}
		return sc.outputs(int(f) - nj)
	}
	consumed := make([]bool, nj+n)
	mark := make([]int32, n) // mark[u] == stamp: u already in the union being collected
	stamp := int32(0)
	// union appends the distinct variables of the live factors mentioning v
	// (v among them); its length is v's elimination width.
	union := func(v int32, into []int32) []int32 {
		stamp++
		for _, f := range users[v] {
			if consumed[f] {
				continue
			}
			for _, u := range scope(f) {
				if mark[u] != stamp {
					mark[u] = stamp
					into = append(into, u)
				}
			}
		}
		return into
	}
	// A width changes only when one of the variable's factors is consumed or
	// created, i.e. for the outputs of the step just taken.
	var buf []int32
	width := make([]int, n)
	for v := range width {
		buf = union(int32(v), buf[:0])
		width[v] = len(buf)
	}
	done := make([]bool, n)
	pos := make([]uint8, n) // output variable → its bit in the step's table index
	for s := 0; s < n; s++ {
		best := -1
		for v, w := range width {
			if !done[v] && (best < 0 || w < width[best]) {
				best = v
			}
		}
		if width[best] > MaxFactorWidth {
			return nil, fmt.Errorf("prob: elimination width %d exceeds limit %d (model too densely coupled)", width[best], MaxFactorWidth)
		}
		v := int32(best)
		buf = union(v, buf[:0])
		outs := slices.DeleteFunc(buf, func(u int32) bool { return u == v })
		slices.Sort(outs)
		for j, u := range outs {
			pos[u] = uint8(j)
		}
		for _, f := range users[v] {
			if consumed[f] {
				continue
			}
			consumed[f] = true
			sc.inputs = append(sc.inputs, f)
			for _, u := range scope(f) {
				if u == v {
					sc.gather = append(sc.gather, selfBit)
				} else {
					sc.gather = append(sc.gather, pos[u])
				}
			}
		}
		size := int(sc.steps[s].tab) + 1<<len(outs)
		if size > math.MaxInt32 {
			return nil, fmt.Errorf("prob: elimination tables exceed %d entries (model too densely coupled)", math.MaxInt32)
		}
		sc.steps[s].v = v
		sc.stepOf[v] = int32(s)
		sc.outVars = append(sc.outVars, outs...)
		sc.steps = append(sc.steps, step{outs: int32(len(sc.outVars)), ins: int32(len(sc.inputs)), tab: int32(size)})
		done[v] = true
		for _, u := range sc.outputs(s) { // the copy that stays: outs aliases buf
			users[u] = append(users[u], int32(nj+s))
			buf = union(u, buf[:0])
			width[u] = len(buf)
		}
	}
	sc.outVars, sc.inputs, sc.gather = slices.Clone(sc.outVars), slices.Clone(sc.inputs), slices.Clone(sc.gather)
	return sc, nil
}

// Engine performs exact inference over a PGraph, optionally with evidence
// baked in. NewEngine compiles the graph's elimination schedule once; every
// probability is then one numeric forward pass over it, and an engine keeps
// the tables of its own pass — per step and per assignment of the step's
// output variables, the summed weight and the weight of "variable present" —
// so SampleWorldInto is one table lookup and one rng draw per variable.
// After construction an Engine is immutable, so concurrent queries and
// sampling are safe provided each goroutine supplies its own rng and scratch
// buffers (QueryBatchCtx and the PMI builder rely on this).
type Engine struct {
	pg    *PGraph
	sched *schedule
	pin   []uint8   // evidence per variable: pinFree, pinAbsent or pinPresent
	slab  []float64 // summed tables, then the present-weight tables at the same offsets
	z     float64
	zFull float64 // partition function of the unconditioned model
}

const (
	pinFree uint8 = iota
	pinAbsent
	pinPresent
)

// NewEngine builds an inference engine for pg with no evidence.
func NewEngine(pg *PGraph) (*Engine, error) {
	sc, err := compile(pg)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(pg, sc, nil, 0)
	if err == nil {
		e.zFull = e.z
	}
	return e, err
}

// NewConditioned builds an engine whose distribution is pg's conditioned on
// the given literals (and only those: evidence e itself carries is not
// inherited). SampleWorld then draws worlds consistent with the evidence; Z
// returns the evidence probability mass times the base Z.
func (e *Engine) NewConditioned(lits []Literal) (*Engine, error) {
	return newEngine(e.pg, e.sched, lits, e.zFull)
}

// newEngine pins lits and runs the engine's own forward pass, keeping its
// tables.
func newEngine(pg *PGraph, sc *schedule, lits []Literal, zFull float64) (*Engine, error) {
	e := &Engine{pg: pg, sched: sc, pin: make([]uint8, len(pg.uncertain)), zFull: zFull}
	if err := pg.pinLits(e.pin, lits); err != nil {
		return nil, err
	}
	half := int(sc.steps[len(sc.steps)-1].tab)
	e.slab = make([]float64, 2*half)
	e.z = e.forward(e.pin, e.slab[:half], e.slab[half:])
	if e.z < 0 {
		return nil, fmt.Errorf("prob: negative partition function")
	}
	return e, nil
}

// pinLits records lits in pin. Literals that cannot hold — a certain edge
// asserted absent, one edge asserted both ways — are an error.
func (pg *PGraph) pinLits(pin []uint8, lits []Literal) error {
	for _, l := range lits {
		v := pg.variable(l.Edge)
		if v < 0 {
			if l.Present {
				continue // certain edge asserted present: vacuous
			}
			return fmt.Errorf("prob: evidence asserts certain edge %d absent", l.Edge)
		}
		want := pinAbsent
		if l.Present {
			want = pinPresent
		}
		if pin[v] != pinFree && pin[v] != want {
			return fmt.Errorf("prob: contradictory evidence on edge %d", l.Edge)
		}
		pin[v] = want
	}
	return nil
}

// forward runs the schedule numerically and returns the partition function
// under pin. For each step and each assignment m of its output variables it
// multiplies the step's inputs, in schedule order from 1.0, once with the
// summed variable absent and once present; a pinned variable's other value
// weighs 0. sums[tab+m] receives 0.0+absent+present and, when present is
// non-nil, present[tab+m] the present weight; Z is the product of the
// constant tables in step order. docs/ARCHITECTURE.md has why these orders
// make every float bit-identical to the reference engine's.
//
//pgvet:noalloc
func (e *Engine) forward(pin []uint8, sums, present []float64) float64 {
	sc, jpts := e.sched, e.pg.JPTs
	z, g := 1.0, 0
	for s, st := range sc.steps[:len(sc.steps)-1] {
		end := sc.steps[s+1]
		ins := sc.inputs[st.ins:end.ins]
		c := g // cursor into gather; every m re-reads the step's run from g
		for m := 0; m < int(end.tab-st.tab); m++ {
			w0, w1 := 1.0, 1.0
			c = g
			for _, id := range ins {
				var tab []float64
				var arity int
				if int(id) < len(jpts) {
					tab, arity = jpts[id].P, len(jpts[id].Edges)
				} else {
					from := sc.steps[int(id)-len(jpts):]
					tab, arity = sums[from[0].tab:], int(from[1].outs-from[0].outs)
				}
				idx, self := 0, 0
				for i, b := range sc.gather[c : c+arity] {
					if b == selfBit {
						self = 1 << i
					} else {
						idx |= (m >> b & 1) << i
					}
				}
				c += arity
				w0 *= tab[idx]
				w1 *= tab[idx|self]
			}
			switch pin[st.v] {
			case pinAbsent:
				w1 = 0
			case pinPresent:
				w0 = 0
			}
			sum := 0.0
			sum += w0
			sum += w1
			sums[int(st.tab)+m] = sum
			if present != nil {
				present[int(st.tab)+m] = w1
			}
		}
		g = c
		if end.outs == st.outs {
			z *= sums[st.tab]
		}
	}
	return z
}

// Z returns the (unnormalized) total weight of the engine's distribution.
// For an unconditioned engine over normalized edge-disjoint JPTs this is 1.
func (e *Engine) Z() float64 { return e.z }

// NumEdges returns the total edge count of the underlying graph.
func (e *Engine) NumEdges() int { return e.pg.G.NumEdges() }

// NumUncertain returns the number of uncertain edge variables.
func (e *Engine) NumUncertain() int { return len(e.pg.uncertain) }

// PGraph returns the engine's underlying probabilistic graph.
func (e *Engine) PGraph() *PGraph { return e.pg }

// ProbEvidence returns the probability mass of this engine's evidence under
// the unconditioned model: Z(evidence)/Z(). For an unconditioned engine it
// is 1.
func (e *Engine) ProbEvidence() float64 {
	if e.zFull == 0 {
		return 0
	}
	return e.z / e.zFull
}

// ProbLits returns the probability that all literals hold, conditioned on
// this engine's evidence: one forward pass with the literals pinned on top
// of the evidence, nothing kept. Literals that cannot hold have probability
// 0.
func (e *Engine) ProbLits(lits []Literal) (float64, error) {
	if e.z == 0 {
		return 0, fmt.Errorf("prob: conditioning event has zero probability")
	}
	pin := slices.Clone(e.pin)
	if e.pg.pinLits(pin, lits) != nil {
		return 0, nil
	}
	sums := make([]float64, len(e.slab)/2)
	return e.forward(pin, sums, nil) / e.z, nil
}

// ProbAllPresent returns Pr(every edge in es exists | evidence). This is the
// probability of one embedding's existence (the paper's Pr(Bf)).
func (e *Engine) ProbAllPresent(es graph.EdgeSet) (float64, error) {
	return e.ProbLits(AllPresent(es))
}

// ProbAllAbsent returns Pr(every edge in es is missing | evidence), the
// probability of one embedding cut's presence (the paper's Pr(Bc)).
func (e *Engine) ProbAllAbsent(es graph.EdgeSet) (float64, error) {
	return e.ProbLits(AllAbsent(es))
}

// MarginalPresent returns Pr(edge exists | evidence). Certain edges have
// probability 1.
func (e *Engine) MarginalPresent(ed graph.EdgeID) (float64, error) {
	if !e.pg.IsUncertain(ed) {
		return 1, nil
	}
	return e.ProbLits([]Literal{{Edge: ed, Present: true}})
}

// SampleWorld draws one possible world exactly from the engine's
// distribution; see SampleWorldInto. The result is a fresh EdgeSet over all
// edges of G.
func (e *Engine) SampleWorld(rng *rand.Rand) graph.EdgeSet {
	world := e.sched.template.Clone()
	e.SampleWorldInto(rng, world, make([]bool, len(e.pg.uncertain)))
	return world
}

// SampleWorldInto is SampleWorld writing into a caller-provided world (must
// have capacity for all edges of G), avoiding allocation in sampling loops.
// scratch must have capacity for NumUncertain() booleans. Starting from the
// certain edges, it walks the schedule backwards: a step's output variables
// are all decided by then, so they index the step's stored tables and the
// variable is present with probability present/sum — one rng draw per step
// whose sum is positive, pinned variables included.
//
//pgvet:noalloc
func (e *Engine) SampleWorldInto(rng *rand.Rand, world graph.EdgeSet, scratch []bool) {
	sc := e.sched
	steps, outVars, unc := sc.steps, sc.outVars, e.pg.uncertain
	assign := scratch[:len(steps)-1]
	half := len(e.slab) / 2
	sums, present := e.slab[:half], e.slab[half:]
	world.CopyFrom(sc.template)
	hi := steps[len(assign)].outs
	for s := len(assign) - 1; s >= 0; s-- {
		st := steps[s]
		at := int(st.tab)
		for j, u := range outVars[st.outs:hi] {
			bit := 0
			if assign[u] {
				bit = 1
			}
			at += bit << j // no branch on a coin flip
		}
		hi = st.outs
		total, on := sums[at], false
		if total > 0 {
			on = rng.Float64()*total < present[at]
		}
		assign[st.v] = on
		world.AddIf(unc[st.v], on)
	}
}

// WorldProb returns the normalized probability of one fully specified world
// under the unconditioned model. Worlds missing a certain edge have
// probability zero.
func (e *Engine) WorldProb(world graph.EdgeSet) float64 {
	if e.zFull == 0 || !world.ContainsAll(e.sched.template) {
		return 0
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
