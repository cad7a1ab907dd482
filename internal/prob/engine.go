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
	comp     []int32       // per step, its component: the index in roots of the root up leads to
	rank     []uint8       // per step, its place among its component's steps, saturating at 255
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

// newSchedule plans elimination over the whole model with the planner
// ProbNoClause runs (elimScratch's whole, order, cost and layout) and copies
// the plan out of the pooled scratch into a schedule of its own: min-degree
// order, lowest index on ties, each step's inputs in creation order.
func newSchedule(pg *PGraph) (*schedule, error) {
	s := elimPool.Get().(*elimScratch)
	defer elimPool.Put(s)
	s.whole(pg)
	if w := s.order(math.MaxInt); w > 0 {
		return nil, fmt.Errorf("prob: elimination width %d exceeds limit %d (model too densely coupled)", w, MaxFactorWidth)
	}
	n, nf := len(s.vars), s.nf
	size := 0 // in int: cost's int32 offsets would wrap first
	for st := 0; st < n; st++ {
		size += 1 << (s.off[nf+st+1] - s.off[nf+st])
	}
	if size > math.MaxInt32 {
		return nil, fmt.Errorf("prob: elimination tables exceed %d entries (model too densely coupled)", math.MaxInt32)
	}
	s.cost()
	s.layout()
	sc := &schedule{
		steps:    make([]step, n+1),
		outVars:  slices.Clone(s.scope[s.off[nf]:]),
		inputs:   slices.Clone(s.inputs),
		gather:   slices.Clone(s.gather),
		tab:      slices.Clone(s.tab),
		up:       slices.Clone(s.up[nf:]),
		stepOf:   slices.Clone(s.pos),
		template: pg.NewWorld(),
	}
	for st := range sc.steps {
		sc.steps[st] = step{outs: s.off[nf+st] - s.off[nf], ins: s.inOff[st], gat: s.gatOff[st]}
		if st < n {
			sc.steps[st].v = s.stepV[st]
		}
	}
	for st, up := range sc.up {
		if up < 0 {
			sc.roots = append(sc.roots, int32(st))
		}
	}
	// A later step is never below an earlier one, so each step's component
	// is known once the steps above it have theirs.
	sc.comp, sc.rank = make([]int32, n), make([]uint8, n)
	for k, r := range sc.roots {
		sc.comp[r] = int32(k)
	}
	for st := n - 1; st >= 0; st-- {
		if u := sc.up[st]; u >= 0 {
			sc.comp[st] = sc.comp[u]
		}
	}
	seen := make([]uint8, len(sc.roots))
	for st, k := range sc.comp {
		sc.rank[st] = seen[k]
		seen[k] = min(seen[k]+1, 255)
	}
	return sc, nil
}

// Engine performs exact inference over a PGraph, optionally with evidence
// baked in. NewEngine compiles the graph's elimination schedule once and runs
// it numerically, keeping its tables — per step and per assignment of the
// step's output variables, the summed weight and the weight of "variable
// present" — so SampleWorldInto is one table lookup and one rng draw per
// variable. Evidence changes only the tables of the steps it pins and of the
// steps above them, the dirty path (see markDirty): ProbLits recomputes that
// path into pooled scratch, ProbLitsBatch each component's path once per
// restriction, and an engine from NewConditioned is an overlay
// holding the dirty path's tables and reading every other table from the
// unconditioned engine it came from. After construction an Engine is
// immutable, so concurrent queries and sampling are safe provided each
// goroutine supplies its own rng and scratch buffers (QueryBatchCtx and the
// PMI builder rely on this).
type Engine struct {
	pg    *PGraph
	sched *schedule
	pin   []bool // evidence per variable: pinned present
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

// clean and pending mark a step's entry in an at vector: its table is the
// root engine's, or it is dirty and not yet placed (see markDirty).
const (
	clean   int32 = -1
	pending int32 = -2
)

// NewEngine builds an inference engine for pg with no evidence.
func NewEngine(pg *PGraph) (*Engine, error) {
	sc, err := newSchedule(pg)
	if err != nil {
		return nil, err
	}
	n := len(sc.steps) - 1
	e := &Engine{pg: pg, sched: sc, pin: make([]bool, len(pg.uncertain)), at: sc.tab[:n:n]}
	e.root = e
	half := int(sc.tab[n])
	e.slab = make([]float64, 2*half)
	every := make([]int32, n)
	for s := range every {
		every[s] = int32(s)
	}
	e.recompute(e.pin, e.at, every, e.slab[:half], e.slab[half:])
	e.z = e.partition(e.at, e.slab[:half])
	if e.z < 0 {
		return nil, fmt.Errorf("prob: negative partition function")
	}
	e.zFull = e.z
	return e, nil
}

// NewConditioned builds an engine whose distribution is pg's conditioned on
// every edge of edges being present (and only those: evidence e itself
// carries is not inherited). SampleWorld then draws worlds consistent with
// the evidence; Z returns the evidence probability mass times the base Z.
// The engine is an overlay on the unconditioned engine: it computes and
// stores only the tables of the steps the edges make dirty and shares all
// others.
func (e *Engine) NewConditioned(edges []graph.EdgeID) (*Engine, error) {
	r := e.root
	c := &Engine{pg: r.pg, sched: r.sched, pin: make([]bool, len(r.pin)), root: r, zFull: r.zFull}
	// One allocation holds at and, behind it, the pinned variables and the
	// dirty steps — at most one each per step — so that an overlay costs
	// four allocations and no pooled scratch, whose reuse the race
	// detector's runtime would randomize.
	n := len(r.at)
	buf := make([]int32, 3*n)
	c.at = buf[:n:n]
	for s := range c.at {
		c.at[s] = clean
	}
	vars := r.pg.pinEdges(c.pin, edges, buf[n:n:2*n])
	dirty, size := r.sched.markDirty(vars, c.at, buf[2*n:2*n])
	c.slab = make([]float64, 2*size)
	r.recompute(c.pin, c.at, dirty, c.slab[:size], c.slab[size:])
	c.z = r.partition(c.at, c.slab[:size])
	if c.z < 0 {
		return nil, fmt.Errorf("prob: negative partition function")
	}
	return c, nil
}

// pinEdges pins present each uncertain edge of edges, appending to vars
// each variable it pins that was free. A certain edge, or one pinned
// already, asserts nothing more.
func (pg *PGraph) pinEdges(pin []bool, edges []graph.EdgeID, vars []int32) []int32 {
	for _, ed := range edges {
		if v := pg.variable(ed); v >= 0 && !pin[v] {
			pin[v] = true
			vars = append(vars, int32(v))
		}
	}
	return vars
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

// markDirty marks dirty the steps whose tables change when vars, free
// until now, are pinned: their steps and every step above them up to a
// root (schedule.up), since a step is dirty when its variable's pin changes
// or when it multiplies in a dirty step's table. at must hold clean for
// every step. It lists the dirty steps in dirty, ascending — read off at
// between the lowest and the highest of them, so no sort — and gives each
// in at its offset in a compact slab half of the returned size; every
// other step stays clean.
//
//pgvet:noalloc
func (sc *schedule) markDirty(vars []int32, at []int32, dirty []int32) ([]int32, int) {
	lo, hi := int32(len(at)), int32(-1)
	for _, v := range vars {
		s := sc.stepOf[v]
		lo = min(lo, s)
		for ; s >= 0 && at[s] == clean; s = sc.up[s] {
			at[s] = pending
			hi = max(hi, s)
		}
	}
	dirty = dirty[:0]
	size := 0
	for s := lo; s <= hi; s++ {
		if at[s] == pending {
			at[s] = int32(size)
			size += 1 << (sc.steps[s+1].outs - sc.steps[s].outs)
			dirty = append(dirty, s)
		}
	}
	return dirty, size
}

// recompute runs the steps in dirty, ascending, numerically under pin:
// every step on the unconditioned engine's first run, the dirty steps
// markDirty listed otherwise. For each step s and each assignment m of its
// output variables it multiplies the step's inputs, in schedule order from
// 1.0, once with the summed variable absent and once present; a pinned
// variable's absent value weighs 0. An input from a step at gives an offset
// (a dirty one) is read from sums, any other from e's own tables.
// sums[at[s]+m] receives 0.0+absent+present and, when present is non-nil,
// present[at[s]+m] the present weight. It is the one loop that computes an
// engine's tables: NewEngine, NewConditioned, ProbLits and ProbLitsBatch
// all run it. docs/ARCHITECTURE.md has why these orders make every float
// bit-identical to the reference engine's.
//
//pgvet:noalloc
func (e *Engine) recompute(pin []bool, at, dirty []int32, sums, present []float64) {
	sc, jpts := e.sched, e.pg.JPTs
	for _, s := range dirty {
		st, end := sc.steps[s], sc.steps[s+1]
		o := int(at[s])
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
			if pin[st.v] {
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
}

// partition returns the partition function after a recompute: the product,
// from 1.0 in step order, of every root's constant table, a dirty root's
// read from sums and a clean one's from e.
//
//pgvet:noalloc
func (e *Engine) partition(at []int32, sums []float64) float64 {
	z := 1.0
	for _, r := range e.sched.roots {
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

// ProbLits returns the probability that every edge of edges is present,
// conditioned on this engine's evidence: the edges pinned on top of the
// evidence, the dirty path recomputed in pooled scratch, nothing kept —
// ProbLitsBatch over one clause.
func (e *Engine) ProbLits(edges []graph.EdgeID) (float64, error) {
	if e.z == 0 {
		return 0, fmt.Errorf("prob: conditioning event has zero probability")
	}
	sc := litScratchPool.Get().(*litScratch)
	var p [1]float64
	e.probLits([][]graph.EdgeID{edges}, p[:], sc)
	litScratchPool.Put(sc)
	return p[0], nil
}

// ProbLitsBatch sets p[i] to ProbLits(clauses[i]) for every clause, bit for
// bit, pricing each restriction of a model component once per call. A
// clause's probability is the product, from 1.0 over the roots in step
// order, of each root's constant — the engine's own for a component the
// clause does not pin — divided by Z. A root's constant depends only on the
// pins in its component (docs/ARCHITECTURE.md, rule 5), so it is memoized
// per call by (component, the variables the clause pins there), and a miss
// recomputes only that component's dirty path. A component of more than 64
// steps has no key and is recomputed for every clause that pins it. p must
// be as long as clauses.
func (e *Engine) ProbLitsBatch(clauses [][]graph.EdgeID, p []float64) error {
	if e.z == 0 {
		return fmt.Errorf("prob: conditioning event has zero probability")
	}
	sc := litScratchPool.Get().(*litScratch)
	e.probLits(clauses, p[:len(clauses)], sc)
	litScratchPool.Put(sc)
	return nil
}

// litScratch is one ProbLits or ProbLitsBatch call's working memory. at
// and slot are clean (−1) over their whole length between calls, so a call
// resets only the entries it set.
type litScratch struct {
	pin   []bool
	vars  []int32   // the variables the current clause pinned
	at    []int32   // per step, its offset in sums while dirty
	dirty []int32   // the steps the last recompute ran, ascending
	sums  []float64 // their summed tables
	// Per component, the engine's root constant, or the clause's while the
	// clause pins the component; per component, its entry in touch while
	// the clause pins it; per variable of vars, its entry in touch; the
	// components the clause pins.
	consts []float64
	slot   []int32
	of     []int32
	touch  []restriction
	memo   memo
}

var litScratchPool = sync.Pool{New: func() any { return new(litScratch) }}

// restriction is what one clause pins in one component: the component and
// the pinned steps as bits of their rank in it — the memo key, unless wide
// — and the root's constant under it once known.
type restriction struct {
	comp   int32
	wide   bool // a pinned step ranks 64th or later: no key
	known  bool // the memo had the key, and c is its constant
	pinned uint64
	c      float64
}

// cleaned returns s[:n], allocating it clean when s is too short: a
// slice kept clean between uses stays clean over its whole capacity.
func cleaned(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
		for i := range s {
			s[i] = clean
		}
	}
	return s[:n]
}

// probLits is ProbLitsBatch over caller-held scratch. A single clause is
// priced as NewConditioned prices its evidence, its dirty path recomputed
// and the partition function taken over it; more clauses go through the
// memo (lookup, then price). Afterwards sc.dirty lists the steps the last
// clause recomputed.
//
//pgvet:noalloc
func (e *Engine) probLits(clauses [][]graph.EdgeID, p []float64, sc *litScratch) {
	sched := e.sched
	memoize := len(clauses) > 1
	sc.pin = append(sc.pin[:0], e.pin...)
	sc.at = cleaned(sc.at, len(e.at))
	if memoize {
		sc.slot = cleaned(sc.slot, len(sched.roots))
		sc.consts = grow(sc.consts, len(sched.roots))
		for k, r := range sched.roots {
			slab, t := e.tables(r)
			sc.consts[k] = slab[t]
		}
		sc.memo.reset()
	}
	for i, edges := range clauses {
		sc.vars = e.pg.pinEdges(sc.pin, edges, sc.vars[:0])
		missed := len(sc.vars)
		if memoize {
			missed = sc.lookup(sched)
		}
		var size int
		sc.dirty, size = sched.markDirty(sc.vars[:missed], sc.at, sc.dirty)
		sc.sums = grow(sc.sums, size)
		e.recompute(sc.pin, sc.at, sc.dirty, sc.sums, nil)
		if memoize {
			p[i] = sc.price(e) / e.z
		} else {
			p[i] = e.partition(sc.at, sc.sums) / e.z
		}
		for _, s := range sc.dirty {
			sc.at[s] = clean
		}
		unpin(sc.pin, sc.vars)
	}
}

// lookup groups the clause's newly pinned variables (sc.vars) by component
// into sc.touch, looks each restriction up in the memo, and moves the
// variables of the components it missed to the front of sc.vars,
// returning how many there are.
//
//pgvet:noalloc
func (sc *litScratch) lookup(sched *schedule) (missed int) {
	// At most one restriction per variable: the slab is sized up front and
	// each new entry's fields are set in place.
	touch, of, slot := grow(sc.touch, len(sc.vars)), grow(sc.of, len(sc.vars)), sc.slot
	n := int32(0)
	for j, v := range sc.vars {
		st := sched.stepOf[v]
		k := sched.comp[st]
		t := slot[k]
		if t < 0 {
			t, slot[k] = n, n
			n++
			rs := &touch[t]
			rs.comp, rs.wide, rs.known, rs.pinned = k, false, false, 0
		}
		of[j] = t
		rs := &touch[t]
		if b := sched.rank[st]; b < 64 {
			rs.pinned |= 1 << b
		} else {
			rs.wide = true
		}
	}
	touch = touch[:n]
	for t := range touch {
		if rs := &touch[t]; !rs.wide {
			rs.c, rs.known = sc.memo.lookup(rs)
		}
	}
	for j, v := range sc.vars {
		if !touch[of[j]].known {
			sc.vars[j], sc.vars[missed] = sc.vars[missed], v
			missed++
		}
	}
	sc.touch, sc.of = touch, of
	return missed
}

// price returns the clause's unnormalized probability once its missed
// components are recomputed: it reads their roots' constants and records
// them in the memo, then takes partition's product — from 1.0 over the
// roots in step order — over the engine's constants with the clause's in
// place of those it pins.
//
//pgvet:noalloc
func (sc *litScratch) price(e *Engine) float64 {
	roots := e.sched.roots
	for t := range sc.touch {
		rs := &sc.touch[t]
		if !rs.known {
			rs.c = sc.sums[sc.at[roots[rs.comp]]]
			if !rs.wide {
				sc.memo.insert(rs)
			}
		}
		sc.consts[rs.comp] = rs.c
	}
	z := 1.0
	for _, c := range sc.consts {
		z *= c
	}
	for _, rs := range sc.touch {
		slab, t := e.tables(roots[rs.comp])
		sc.consts[rs.comp], sc.slot[rs.comp] = slab[t], clean
	}
	return z
}

// unpin frees the variables vars pinned.
func unpin(pin []bool, vars []int32) {
	for _, v := range vars {
		pin[v] = false
	}
}

// memo maps a restriction's key to its root's constant within one call:
// the restrictions priced so far, and an open-addressed index into them
// at most half full.
type memo struct {
	entries []restriction
	index   []int32 // 1 + the entry's position, 0 for an empty slot; a power of two long
}

func (m *memo) reset() {
	m.entries = m.entries[:0]
	m.index = grow(m.index, 8)
	clear(m.index)
}

// slot returns where r's key is in the index, or the empty slot it would
// take.
func (m *memo) slot(r *restriction) int {
	h := uint64(r.comp) ^ r.pinned*0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	mask := len(m.index) - 1
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		k := m.index[i]
		if k == 0 {
			return i
		}
		if x := &m.entries[k-1]; x.comp == r.comp && x.pinned == r.pinned {
			return i
		}
	}
}

// lookup returns the constant recorded for r's key.
func (m *memo) lookup(r *restriction) (float64, bool) {
	if k := m.index[m.slot(r)]; k > 0 {
		return m.entries[k-1].c, true
	}
	return 0, false
}

// insert records r, whose key is not in m, doubling the index when it
// would pass half full.
func (m *memo) insert(r *restriction) {
	m.entries = append(m.entries, *r)
	if 2*len(m.entries) > len(m.index) {
		m.index = grow(m.index, 2*len(m.index))
		clear(m.index)
		for k := range m.entries[:len(m.entries)-1] {
			m.index[m.slot(&m.entries[k])] = int32(k + 1)
		}
	}
	m.index[m.slot(r)] = int32(len(m.entries))
}

// MarginalPresent returns Pr(edge exists | evidence). Certain edges have
// probability 1.
func (e *Engine) MarginalPresent(ed graph.EdgeID) (float64, error) {
	if !e.pg.IsUncertain(ed) {
		return 1, nil
	}
	return e.ProbLits([]graph.EdgeID{ed})
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
