package prob

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"probgraph/internal/graph"
)

// MaxFactorWidth bounds the arity of intermediate factors during variable
// elimination. Neighbor-edge JPTs keep the effective treewidth small; if a
// pathological model exceeds this, engine construction fails rather than
// exhausting memory.
const MaxFactorWidth = 22

// schedule is variable elimination over one PGraph with the numbers taken
// out: the min-degree order, which factors each step multiplies, every
// intermediate table's variables, where the table lives in a slab and which
// later step reads it. None of it depends on evidence (a pinned variable
// keeps its place, its tables their shapes), so it is compiled once per
// graph and shared by the base engine and every engine conditioned from it —
// flat, offsets into shared slabs, because a database holds one per graph.
//
// Factor ids: id < len(JPTs) is that JPT, read in place; id-len(JPTs) is the
// table a step produced. Bit i of a table index is the factor's i-th
// variable: a JPT's Edges order, a step's outputs ascending.
type schedule struct {
	steps    []step        // in elimination order, plus a sentinel holding the ends
	outVars  []int32       // per step, its output variables ascending
	inputs   []int32       // per step, factor ids in multiplication order
	gather   []uint8       // per input, per variable of that factor: the output bit to read, or selfBit
	tab      []int32       // per step, its table's offset in a full slab half; then the half's size
	up       []int32       // per step, the later step that multiplies its table in, or -1 for a root
	roots    []int32       // the steps without outputs, ascending
	stepOf   []int32       // per variable, the step that sums it out
	template graph.EdgeSet // certain-edges-only world
}

// step is one elimination: v is summed out of the product of the inputs,
// leaving a table of 1<<len(outputs) entries (at schedule.tab in a full
// slab). outs, ins and gat index the step's first output, input and gather
// entry; the next step's mark the ends. A step without outputs is a root:
// its constant table is a factor of the partition function and no step
// reads it, while every other step's table is read by exactly one later
// step (schedule.up).
type step struct{ v, outs, ins, gat int32 }

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
	sc := &schedule{steps: make([]step, 1, n+1), tab: make([]int32, 1, n+1), up: make([]int32, n), stepOf: make([]int32, n), template: pg.NewWorld()}
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
			if int(f) >= nj {
				sc.up[int(f)-nj] = int32(s)
			}
			sc.inputs = append(sc.inputs, f)
			for _, u := range scope(f) {
				if u == v {
					sc.gather = append(sc.gather, selfBit)
				} else {
					sc.gather = append(sc.gather, pos[u])
				}
			}
		}
		size := int(sc.tab[s]) + 1<<len(outs)
		if size > math.MaxInt32 {
			return nil, fmt.Errorf("prob: elimination tables exceed %d entries (model too densely coupled)", math.MaxInt32)
		}
		sc.steps[s].v, sc.up[s] = v, -1
		sc.stepOf[v] = int32(s)
		sc.outVars = append(sc.outVars, outs...)
		sc.steps = append(sc.steps, step{outs: int32(len(sc.outVars)), ins: int32(len(sc.inputs)), gat: int32(len(sc.gather))})
		sc.tab = append(sc.tab, int32(size))
		done[v] = true
		for _, u := range sc.outputs(s) { // the copy that stays: outs aliases buf
			users[u] = append(users[u], int32(nj+s))
			buf = union(u, buf[:0])
			width[u] = len(buf)
		}
	}
	for s, up := range sc.up {
		if up < 0 {
			sc.roots = append(sc.roots, int32(s))
		}
	}
	sc.outVars, sc.inputs, sc.gather = slices.Clone(sc.outVars), slices.Clone(sc.inputs), slices.Clone(sc.gather)
	return sc, nil
}

// Engine performs exact inference over a PGraph, optionally with evidence
// baked in. NewEngine compiles the graph's elimination schedule once and runs
// it numerically, keeping its tables — per step and per assignment of the
// step's output variables, the summed weight and the weight of "variable
// present" — so SampleWorldInto is one table lookup and one rng draw per
// variable. Evidence changes only the tables of the steps it pins and of the
// steps above them, the dirty path (see markDirty): ProbLits recomputes that
// path into pooled scratch, and an engine from NewConditioned is an overlay
// holding the dirty path's tables and reading every other table from the
// unconditioned engine it came from. After construction an Engine is
// immutable, so concurrent queries and sampling are safe provided each
// goroutine supplies its own rng and scratch buffers (QueryBatchCtx and the
// PMI builder rely on this).
type Engine struct {
	pg    *PGraph
	sched *schedule
	pin   []uint8 // evidence per variable: pinFree, pinAbsent or pinPresent
	// root is the unconditioned engine — e itself, or the engine e was
	// conditioned from — and holds every step's tables.
	root *Engine
	// at is, per step, the offset of the step's tables in slab, or clean
	// when e reads root's. Every step of root is its own.
	at   []int32
	slab []float64 // e's own tables: summed, then the present weights at the same offsets
	z    float64
	// zFull is the partition function of the unconditioned model.
	zFull float64
}

const (
	pinFree uint8 = iota
	pinAbsent
	pinPresent
)

// clean and pending mark a step's entry in an at vector: its table is the
// root engine's, or it is dirty and not yet placed (see markDirty).
const (
	clean   int32 = -1
	pending int32 = -2
)

// NewEngine builds an inference engine for pg with no evidence.
func NewEngine(pg *PGraph) (*Engine, error) {
	sc, err := compile(pg)
	if err != nil {
		return nil, err
	}
	n := len(sc.steps) - 1
	e := &Engine{pg: pg, sched: sc, pin: make([]uint8, len(pg.uncertain)), at: sc.tab[:n:n]}
	e.root = e
	half := int(sc.tab[n])
	e.slab = make([]float64, 2*half)
	e.z = e.recompute(e.pin, e.at, e.slab[:half], e.slab[half:])
	if e.z < 0 {
		return nil, fmt.Errorf("prob: negative partition function")
	}
	e.zFull = e.z
	return e, nil
}

// NewConditioned builds an engine whose distribution is pg's conditioned on
// the given literals (and only those: evidence e itself carries is not
// inherited). SampleWorld then draws worlds consistent with the evidence; Z
// returns the evidence probability mass times the base Z. The engine is an
// overlay on the unconditioned engine: it computes and stores only the
// tables of the steps the literals make dirty and shares all others.
func (e *Engine) NewConditioned(lits []Literal) (*Engine, error) {
	r := e.root
	c := &Engine{pg: r.pg, sched: r.sched, pin: make([]uint8, len(r.pin)), root: r, at: make([]int32, len(r.at)), zFull: r.zFull}
	if err := r.pg.pinLits(c.pin, lits); err != nil {
		return nil, err
	}
	size := r.markDirty(c.pin, lits, c.at)
	c.slab = make([]float64, 2*size)
	c.z = r.recompute(c.pin, c.at, c.slab[:size], c.slab[size:])
	if c.z < 0 {
		return nil, fmt.Errorf("prob: negative partition function")
	}
	return c, nil
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

// tables returns the slab holding step s's tables and the offset of its
// summed table there; its present weights lie half the slab further on.
//
//pgvet:noalloc
func (e *Engine) tables(s int32) ([]float64, int) {
	if o := e.at[s]; o >= 0 {
		return e.slab, int(o)
	}
	return e.root.slab, int(e.sched.tab[s])
}

// markDirty finds the steps whose tables change when lits are pinned on top
// of e's evidence, pin being the result. A step is dirty when pin and e.pin
// differ on its variable or when it multiplies in a dirty step's table, so
// the dirty set is the newly pinned variables' steps and every step above
// them up to a root (schedule.up). It gives each dirty step, in step order,
// the offset of its table in a compact slab half of the returned size, and
// marks every other step clean in at.
//
//pgvet:noalloc
func (e *Engine) markDirty(pin []uint8, lits []Literal, at []int32) int {
	sc := e.sched
	for s := range at {
		at[s] = clean
	}
	for _, l := range lits {
		v := e.pg.variable(l.Edge)
		if v < 0 || pin[v] == e.pin[v] {
			continue
		}
		for s := sc.stepOf[v]; s >= 0 && at[s] == clean; s = sc.up[s] {
			at[s] = pending
		}
	}
	size := 0
	for s, o := range at {
		if o == pending {
			at[s] = int32(size)
			size += 1 << (sc.steps[s+1].outs - sc.steps[s].outs)
		}
	}
	return size
}

// recompute runs the dirty steps — those at gives an offset (see markDirty),
// every step on the unconditioned engine's first run — in step order
// numerically under pin and returns the partition function. For each dirty
// step s and each assignment m of its output variables it multiplies the
// step's inputs, in schedule order from 1.0, once with the summed variable
// absent and once present; a pinned variable's other value weighs 0. An
// input from a dirty step is read from sums, one from a clean step from e's
// own tables. sums[at[s]+m] receives 0.0+absent+present and, when present
// is non-nil, present[at[s]+m] the present weight. Z is the product, from
// 1.0 in step order, of every root's constant table, dirty or clean.
// docs/ARCHITECTURE.md has why these orders make every float bit-identical
// to the reference engine's.
//
//pgvet:noalloc
func (e *Engine) recompute(pin []uint8, at []int32, sums, present []float64) float64 {
	sc, jpts := e.sched, e.pg.JPTs
	for s, o32 := range at {
		if o32 < 0 {
			continue
		}
		st, end := sc.steps[s], sc.steps[s+1]
		o := int(o32)
		ins := sc.inputs[st.ins:end.ins]
		for m := 0; m < 1<<(end.outs-st.outs); m++ {
			w0, w1 := 1.0, 1.0
			c := int(st.gat)
			for _, id := range ins {
				var tab []float64
				var arity int
				if int(id) < len(jpts) {
					tab, arity = jpts[id].P, len(jpts[id].Edges)
				} else {
					j := int(id) - len(jpts)
					arity = int(sc.steps[j+1].outs - sc.steps[j].outs)
					if oj := at[j]; oj >= 0 {
						tab = sums[oj:]
					} else {
						slab, t := e.tables(int32(j))
						tab = slab[t:]
					}
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
			sums[o+m] = sum
			if present != nil {
				present[o+m] = w1
			}
		}
	}
	z := 1.0
	for _, r := range sc.roots {
		if o := at[r]; o >= 0 {
			z *= sums[o]
		} else {
			slab, t := e.tables(r)
			z *= slab[t]
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
// this engine's evidence: the literals pinned on top of the evidence, the
// dirty path recomputed in pooled scratch, nothing kept. Literals that
// cannot hold have probability 0.
func (e *Engine) ProbLits(lits []Literal) (float64, error) {
	if e.z == 0 {
		return 0, fmt.Errorf("prob: conditioning event has zero probability")
	}
	sc := litScratchPool.Get().(*litScratch)
	p := e.probLits(lits, sc)
	litScratchPool.Put(sc)
	return p, nil
}

// litScratch is one ProbLits call's working memory: the pin vector, the
// dirty steps' offsets and their summed tables.
type litScratch struct {
	pin  []uint8
	at   []int32
	sums []float64
}

var litScratchPool = sync.Pool{New: func() any { return new(litScratch) }}

// probLits is ProbLits over caller-held scratch, whose at then gives an
// offset to exactly the steps it recomputed (sc.at is empty when the
// literals cannot hold).
//
//pgvet:noalloc
func (e *Engine) probLits(lits []Literal, sc *litScratch) float64 {
	sc.pin = append(sc.pin[:0], e.pin...)
	sc.at = sc.at[:0]
	if e.pg.pinLits(sc.pin, lits) != nil {
		return 0
	}
	if cap(sc.at) < len(e.at) {
		sc.at = make([]int32, len(e.at))
	}
	sc.at = sc.at[:len(e.at)]
	size := e.markDirty(sc.pin, lits, sc.at)
	if cap(sc.sums) < size {
		sc.sums = make([]float64, size)
	}
	return e.recompute(sc.pin, sc.at, sc.sums[:size], nil) / e.z
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
	ats, own, base := e.at[:len(assign)], e.slab, e.root.slab
	world.CopyFrom(sc.template)
	hi := steps[len(assign)].outs
	for s := len(assign) - 1; s >= 0; s-- {
		st := steps[s]
		slab, at := own, int(ats[s]) // e.tables, unrolled
		if at < 0 {
			slab, at = base, int(sc.tab[s])
		}
		for j, u := range outVars[st.outs:hi] {
			bit := 0
			if assign[u] {
				bit = 1
			}
			at += bit << j // no branch on a coin flip
		}
		hi = st.outs
		total, on := slab[at], false
		if total > 0 {
			on = rng.Float64()*total < slab[len(slab)/2+at]
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
