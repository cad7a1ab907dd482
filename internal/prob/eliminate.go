package prob

import (
	"fmt"
	"math/bits"
	"sync"

	"probgraph/internal/graph"
)

// ProbNoClause returns the probability under e's distribution, its evidence
// included, that none of the clauses holds, a clause holding when every
// edge it lists is present — one minus the probability of their DNF. It is
// computed exactly by variable elimination over two kinds of factor: every
// JPT of each connected component of the model that a clause reaches, so
// that tables sharing edges enter whole, and one 0/1 factor per clause over
// its distinct uncertain edges that is 0 where they are all present,
// applied by writing those zeros alone. The normalizer is the product of
// those components' partition functions, read from e.
//
// The min-degree order over the reached variables is compiled from symbols
// on each call, by the planner that also gives NewEngine its schedule, and
// with it the cost: the entries the steps touch. A step of width w reads
// 2^w entries of each table it multiplies — a JPT or an earlier step's —
// and writes 2^(w−k) for a clause over k variables, the entries where the
// clause holds. When that cost exceeds budget, or a step would be wider
// than MaxFactorWidth, the call declines, ok false, before any arithmetic
// runs.
// It draws no random numbers and works in pooled scratch, so a warmed call
// allocates nothing. A clause that lists only certain edges, the empty
// clause among them, holds in every world, and the probability is 0.
func (e *Engine) ProbNoClause(clauses [][]graph.EdgeID, budget int) (p float64, ok bool, err error) {
	return e.probNoClause(clauses, budget, zeroWhereHolds)
}

// probNoClause is ProbNoClause with each clause factor applied by zero.
func (e *Engine) probNoClause(clauses [][]graph.EdgeID, budget int, zero clauseFactor) (p float64, ok bool, err error) {
	if e.z == 0 {
		return 0, false, fmt.Errorf("prob: conditioning event has zero probability")
	}
	if len(clauses) == 0 {
		return 1, true, nil
	}
	s := elimPool.Get().(*elimScratch)
	defer elimPool.Put(s)
	switch s.factors(e, clauses, budget) {
	case certainClause:
		return 0, true, nil
	case overBudget:
		return 0, false, nil
	}
	if s.order(budget) > 0 || s.cost() > budget {
		return 0, false, nil
	}
	s.layout()
	s.buffers()
	num := s.eliminate(e, zero)
	z := 1.0
	for k, live := range s.live {
		if live {
			slab, t := e.tables(e.sched.roots[k])
			z *= slab[t]
		}
	}
	return min(max(num/z, 0), 1), true, nil
}

// elimScratch is one ProbNoClause call's working memory. Variables are
// local — the reached components' uncertain edges, numbered in ascending
// edge order — and factor ids run over the reached JPTs, then the clauses,
// then the steps' tables (nf + s is step s's).
type elimScratch struct {
	// Per engine step and per engine variable.
	live  []bool  // component → some clause reaches it
	local []int32 // variable → local variable, or -1
	seen  []int32 // variable → 1 + the last clause that listed it

	vars   []int32  // local → engine variable
	jpts   []int32  // reached JPTs, by index into the model's
	cvars  []int32  // the clauses' distinct engine variables, flat
	coff   []int32  // offsets of each clause's run in cvars
	scope  []int32  // every factor's local variables: JPTs in Edges order, then clauses, then steps' outputs ascending
	off    []int32  // factor → its run in scope (len = factors + 1)
	adj    []uint64 // local variable → its neighbours and itself, words per row
	mask   []uint64 // one factor's variables
	width  []int    // local variable → the width eliminating it next would have
	pos    []int32  // local variable → the step that sums it out
	stepV  []int32  // step → the local variable it sums out
	up     []int32  // factor → the step that multiplies it in, or -1
	inOff  []int32  // step → its run in inputs
	inputs []int32  // per step, the factors it multiplies: originals ascending, then steps' tables ascending
	fill   []int32  // step → inputs placed so far
	gather []uint8  // per input, per variable of that factor: the step's output bit, or selfBit
	gatOff []int32  // step → its run in gather
	bitOf  []uint8  // local variable → its bit among the current step's outputs
	tab    []int32  // step → its table's offset in sums; then the total
	sums   []float64
	w0, w1 []float64 // the current step's weights per assignment of its outputs, variable absent and present
	lo, hi []int     // the current input's index per assignment of the outputs' low and high halves
	put    []int     // output bit → the current input's index bit it sets, or 0
	nf     int       // original factors: the reached JPTs and the clauses
}

var elimPool = sync.Pool{New: func() any { return new(elimScratch) }}

// Outcomes of elimScratch.factors besides a model to eliminate.
const (
	modelReady = iota
	certainClause
	overBudget
)

// grow returns buf resized to n, reallocated only when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// factors collects the model to eliminate: the clauses' distinct
// variables, the components they reach, those components' variables and
// JPTs, and every factor's scope. It returns certainClause or overBudget
// as soon as either is known: each factor is multiplied in once, by a step
// at least as wide as the factor, so the JPTs' table sizes plus one entry
// per clause are a lower bound on the cost.
func (s *elimScratch) factors(e *Engine, clauses [][]graph.EdgeID, budget int) int {
	pg, sc := e.pg, e.sched
	n := len(pg.uncertain)
	s.seen = grow(s.seen, n)
	clear(s.seen)
	s.cvars, s.coff = s.cvars[:0], append(s.coff[:0], 0)
	for ci, c := range clauses {
		start := len(s.cvars)
		for _, ed := range c {
			if v := pg.variable(ed); v >= 0 && s.seen[v] != int32(ci+1) {
				s.seen[v] = int32(ci + 1)
				s.cvars = append(s.cvars, int32(v))
			}
		}
		if len(s.cvars) == start {
			return certainClause
		}
		s.coff = append(s.coff, int32(len(s.cvars)))
	}
	s.live = grow(s.live, len(sc.roots))
	clear(s.live)
	for _, v := range s.cvars {
		s.live[sc.comp[sc.stepOf[v]]] = true
	}
	s.local = grow(s.local, n)
	s.vars = s.vars[:0]
	for v := range s.local {
		s.local[v] = -1
		if s.live[sc.comp[sc.stepOf[v]]] {
			s.local[v] = int32(len(s.vars))
			s.vars = append(s.vars, int32(v))
		}
	}
	cost := s.jptFactors(pg)
	for i := range clauses {
		vs := s.cvars[s.coff[i]:s.coff[i+1]]
		if len(vs) > MaxFactorWidth {
			return overBudget
		}
		for _, v := range vs {
			s.scope = append(s.scope, s.local[v])
		}
		s.off = append(s.off, int32(len(s.scope)))
		cost++
	}
	if cost > budget {
		return overBudget
	}
	s.nf = len(s.jpts) + len(clauses)
	return modelReady
}

// whole collects the entire model, as NewEngine's schedule eliminates it:
// every uncertain edge a variable, numbered as the engine numbers them, and
// every JPT a factor, with no clauses.
func (s *elimScratch) whole(pg *PGraph) {
	n := len(pg.uncertain)
	s.local, s.vars = grow(s.local, n), grow(s.vars, n)
	for v := range s.local {
		s.local[v], s.vars[v] = int32(v), int32(v)
	}
	s.jptFactors(pg)
	s.nf = len(s.jpts)
}

// jptFactors lists the JPTs over local variables, with their scopes, as the
// first factors and returns the sum of their table sizes.
func (s *elimScratch) jptFactors(pg *PGraph) int {
	cost := 0
	s.jpts, s.scope, s.off = s.jpts[:0], s.scope[:0], append(s.off[:0], 0)
	for j, t := range pg.JPTs {
		if s.local[pg.varOf[t.Edges[0]]] < 0 {
			continue
		}
		for _, ed := range t.Edges {
			s.scope = append(s.scope, s.local[pg.varOf[ed]])
		}
		s.jpts = append(s.jpts, int32(j))
		s.off = append(s.off, int32(len(s.scope)))
		cost += len(t.P)
	}
	return cost
}

// order runs min-degree elimination on the interaction graph of the
// factors: at each step the variable with the fewest neighbours, itself
// included, goes next (lowest local index on ties), its neighbours become
// pairwise adjacent, and the step's outputs are those neighbours, appended
// as one more factor's scope. It declines when a step alone would read more
// than budget entries — every step multiplies in a table over the variable
// it sums out, a JPT or an earlier step's — or would be wider than
// MaxFactorWidth, and returns that step's width; it returns 0 once every
// variable has its step.
func (s *elimScratch) order(budget int) (refused int) {
	k := len(s.vars)
	words := (k + 63) / 64
	s.adj, s.mask = grow(s.adj, k*words), grow(s.mask, words)
	clear(s.adj)
	for f := 0; f < s.nf; f++ {
		vs := s.scope[s.off[f]:s.off[f+1]]
		clear(s.mask)
		for _, u := range vs {
			s.mask[u>>6] |= 1 << (u & 63)
		}
		for _, u := range vs {
			row := s.adj[int(u)*words:]
			for i, x := range s.mask {
				row[i] |= x
			}
		}
	}
	s.width, s.pos, s.stepV = grow(s.width, k), grow(s.pos, k), grow(s.stepV, k)
	for u := range s.width {
		s.width[u] = popcount(s.adj[u*words : (u+1)*words])
		s.pos[u] = -1
	}
	for st := 0; st < k; st++ {
		best := -1
		for u, w := range s.width {
			if s.pos[u] < 0 && (best < 0 || w < s.width[best]) {
				best = u
			}
		}
		if s.width[best] > MaxFactorWidth || 1<<s.width[best] > budget {
			return s.width[best]
		}
		s.pos[best], s.stepV[st] = int32(st), int32(best)
		row := s.adj[best*words : (best+1)*words]
		row[best/64] &^= 1 << (best % 64)
		for wi, w := range row {
			for ; w != 0; w &= w - 1 {
				u := 64*wi + bits.TrailingZeros64(w)
				s.scope = append(s.scope, int32(u))
				nb := s.adj[u*words : (u+1)*words]
				for i, x := range row {
					nb[i] |= x
				}
				nb[best/64] &^= 1 << (best % 64)
				s.width[u] = popcount(nb)
			}
		}
		s.off = append(s.off, int32(len(s.scope)))
	}
	return 0
}

func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// cost assigns every factor to the step that multiplies it in — the first
// step to sum out one of its variables, none for a root's table — counting
// each step's inputs and placing its table, and returns the elimination's
// cost: over the steps, 2^width per table input and 2^(width−k) per clause
// over k variables, the entries eliminate touches.
func (s *elimScratch) cost() int {
	k, nj, nf := len(s.vars), len(s.jpts), s.nf
	s.inOff, s.fill, s.up = grow(s.inOff, k+1), grow(s.fill, k), grow(s.up, nf+k)
	clear(s.inOff)
	clear(s.fill)
	cost := 0
	for f := range s.up {
		vs := s.scope[s.off[f]:s.off[f+1]]
		c := int32(-1)
		for _, u := range vs {
			if p := s.pos[u]; c < 0 || p < c {
				c = p
			}
		}
		s.up[f] = c
		if c < 0 {
			continue
		}
		s.inOff[c+1]++
		width := 1 + int(s.off[nf+int(c)+1]-s.off[nf+int(c)])
		if f >= nj && f < nf {
			width -= len(vs)
		}
		cost += 1 << width
	}
	s.tab = grow(s.tab, k+1)
	s.tab[0] = 0
	for st := 0; st < k; st++ {
		s.inOff[st+1] += s.inOff[st]
		s.tab[st+1] = s.tab[st] + 1<<(s.off[nf+st+1]-s.off[nf+st])
	}
	return cost
}

// layout lists each step's inputs, originals ascending and then steps'
// tables ascending, with their gather maps.
func (s *elimScratch) layout() {
	k := len(s.vars)
	s.inputs = grow(s.inputs, int(s.inOff[k]))
	for f, c := range s.up {
		if c >= 0 {
			s.inputs[s.inOff[c]+s.fill[c]] = int32(f)
			s.fill[c]++
		}
	}
	s.bitOf, s.gatOff = grow(s.bitOf, k), grow(s.gatOff, k+1)
	s.gather = s.gather[:0]
	for st := 0; st < k; st++ {
		s.gatOff[st] = int32(len(s.gather))
		for j, u := range s.scope[s.off[s.nf+st]:s.off[s.nf+st+1]] {
			s.bitOf[u] = uint8(j)
		}
		for _, f := range s.inputs[s.inOff[st]:s.inOff[st+1]] {
			for _, u := range s.scope[s.off[f]:s.off[f+1]] {
				b := s.bitOf[u]
				if u == s.stepV[st] {
					b = selfBit
				}
				s.gather = append(s.gather, b)
			}
		}
	}
	s.gatOff[k] = int32(len(s.gather))
}

// buffers sizes eliminate's working memory: the tables' slab and the
// per-step weights and index tables, for the widest step.
func (s *elimScratch) buffers() {
	k, widest := len(s.vars), 0
	for st := 0; st < k; st++ {
		widest = max(widest, int(s.off[s.nf+st+1]-s.off[s.nf+st]))
	}
	s.sums = grow(s.sums, int(s.tab[k]))
	s.w0, s.w1 = grow(s.w0, 1<<widest), grow(s.w1, 1<<widest)
	s.lo, s.hi, s.put = grow(s.lo, 1<<(widest/2)), grow(s.hi, 1<<(widest-widest/2)), grow(s.put, widest)
	s.lo[0], s.hi[0] = 0, 0
}

// eliminate runs the planned steps and returns the weight of the worlds in
// which no clause holds, over the reached components. For each step and
// each assignment m of its outputs it multiplies the step's inputs, in
// plan order from 1.0, once with the summed variable absent (w0) and once
// present (w1) — zero applies a clause factor, zeroing the weights where
// its clause holds — and stores their sum; a variable e's evidence pins
// weighs 0 absent. A table input is read at the index its variables' bits
// of m scatter to, looked up in two tables over m's low and high halves.
// The result is the product, in step order, of the root steps' constant
// tables.
//
//pgvet:noalloc
func (s *elimScratch) eliminate(e *Engine, zero clauseFactor) float64 {
	jpts, nj, nf := e.pg.JPTs, len(s.jpts), s.nf
	num := 1.0
	for st, v := range s.stepV {
		o, size := int(s.tab[st]), int(s.tab[st+1]-s.tab[st])
		nout := bits.TrailingZeros(uint(size))
		half := nout / 2
		w0, w1 := s.w0[:size], s.w1[:size]
		for m := range w0 {
			w0[m], w1[m] = 1, 1
		}
		lo, hi := s.lo[:1<<half], s.hi[:1<<(nout-half)]
		put := s.put[:nout]
		c := int(s.gatOff[st])
		for _, f := range s.inputs[s.inOff[st]:s.inOff[st+1]] {
			arity := int(s.off[f+1] - s.off[f])
			clear(put)
			self := 0
			for i, b := range s.gather[c : c+arity] {
				if b == selfBit {
					self = 1 << i
				} else {
					put[b] = 1 << i
				}
			}
			c += arity
			if int(f) >= nj && int(f) < nf {
				zero(w0, w1, put, self)
				continue
			}
			for x := 1; x < len(lo); x++ {
				lo[x] = lo[x&(x-1)] | put[bits.TrailingZeros(uint(x))]
			}
			for x := 1; x < len(hi); x++ {
				hi[x] = hi[x&(x-1)] | put[half+bits.TrailingZeros(uint(x))]
			}
			var tab []float64
			if int(f) < nj {
				tab = jpts[s.jpts[f]].P
			} else {
				tab = s.sums[s.tab[int(f)-nf]:]
			}
			for m := range w0 {
				i := lo[m&(len(lo)-1)] | hi[m>>half]
				w0[m] *= tab[i]
				w1[m] *= tab[i|self]
			}
		}
		if e.pin[s.vars[v]] {
			clear(w0)
		}
		for m := range w0 {
			s.sums[o+m] = w0[m] + w1[m]
		}
		if size == 1 {
			num *= s.sums[o]
		}
	}
	return num
}

// clauseFactor applies one clause's 0/1 factor to a step's weights: w0 and
// w1 per assignment m of the step's outputs, with the summed variable
// absent and present. Output bit b of m is the clause's variable put[b]
// (a one-bit mask of the clause's scope; 0 for an output the clause does
// not read), self is the summed variable's bit in the scope (0 when the
// clause does not read it), and the clause holds where every variable of
// its scope is present.
type clauseFactor func(w0, w1 []float64, put []int, self int)

// zeroWhereHolds is the clause factor eliminate runs. It writes 0 to the
// 2^(w−k) entries where the clause holds and reads no other, k of the w
// output bits being the clause's: those bits are set and the others run
// over every subset. It zeroes w1 there, and w0 too when the clause does
// not read the summed variable — the entries a scan of all 2^w would find,
// so the weights come out the same bit for bit.
//
//pgvet:noalloc
func zeroWhereHolds(w0, w1 []float64, put []int, self int) {
	fixed := 0
	for b, bit := range put {
		if bit != 0 {
			fixed |= 1 << b
		}
	}
	free := (len(w0) - 1) &^ fixed
	for sub := free; ; sub = (sub - 1) & free {
		if self == 0 {
			w0[fixed|sub] = 0
		}
		w1[fixed|sub] = 0
		if sub == 0 {
			return
		}
	}
}
