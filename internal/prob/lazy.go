package prob

import "probgraph/internal/graph"

// SplitMix is the SplitMix64 generator: a counter advanced by the golden
// gamma and passed through the SplitMix64 finalizer. Its whole state is one
// word, so seeding a stream per sampled candidate costs nothing.
type SplitMix struct{ x uint64 }

// NewSplitMix returns the stream seeded with seed.
func NewSplitMix(seed int64) SplitMix { return SplitMix{uint64(seed)} }

// Uint64 returns the next 64 bits of the stream.
func (r *SplitMix) Uint64() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1) from the top 53 bits of Uint64.
func (r *SplitMix) Float64() float64 { return float64(r.Uint64()>>11) * 0x1p-53 }

// LazyWorld is one possible world of an engine's distribution whose
// uncertain edges are drawn only when asked for. Asking for variable v
// first draws the outputs of v's elimination step — variables eliminated
// later — and then v from the step's stored tables, exactly as
// SampleWorldInto would given those outputs: ancestral sampling in the
// schedule's DAG, whose parents of v are its step's outputs. A variable not
// yet drawn has no drawn descendant, so by the local Markov property every
// draw is exact whatever was asked before it, and the edges asked about are
// distributed as in a full world. A pinned variable takes its pinned value
// without a draw. Reset starts the next world.
type LazyWorld struct {
	e       *Engine
	on, off graph.EdgeSet // edges known present (certain ones from the start), known absent
	touched []int32       // variables decided since the last Reset
}

// NewLazyWorld returns an empty world of e's distribution.
func NewLazyWorld(e *Engine) *LazyWorld {
	n := len(e.pg.uncertain)
	return &LazyWorld{e: e, on: e.sched.template.Clone(), off: graph.NewEdgeSet(e.NumEdges()), touched: make([]int32, 0, n)}
}

// Reset forgets every decided variable and makes the next world one of e's
// distribution; e must be the world's engine or one conditioned from it.
//
//pgvet:noalloc
func (w *LazyWorld) Reset(e *Engine) {
	for _, v := range w.touched {
		ed := w.e.pg.uncertain[v]
		w.on.Remove(ed)
		w.off.Remove(ed)
	}
	w.touched = w.touched[:0]
	w.e = e
}

// Present reports whether edge ed exists in the world, drawing from rng what
// it needs and nothing more. A certain edge is always present.
//
//pgvet:noalloc
func (w *LazyWorld) Present(rng *SplitMix, ed graph.EdgeID) bool {
	v := w.e.pg.varOf[ed]
	return v < 0 || w.draw(rng, v)
}

// ContainsAll reports whether every edge of c is present. What is already
// decided answers first: an edge known absent fails c and edges known
// present pass without a draw. The rest are drawn in ascending order, and c
// fails at the first that is absent.
//
//pgvet:noalloc
func (w *LazyWorld) ContainsAll(rng *SplitMix, c graph.EdgeSet) bool {
	if w.off.Intersects(c) {
		return false
	}
	for {
		ed, open := c.FirstNotIn(w.on)
		if !open {
			return true
		}
		if !w.Present(rng, ed) {
			return false
		}
	}
}

// draw returns variable v's value, drawing it and its undrawn ancestors.
// The recursion climbs to strictly later steps, so it is at most as deep as
// the schedule is long.
//
//pgvet:noalloc
func (w *LazyWorld) draw(rng *SplitMix, v int32) bool {
	e := w.e
	ed := e.pg.uncertain[v]
	if w.on.Contains(ed) {
		return true
	}
	if w.off.Contains(ed) {
		return false
	}
	on := e.pin[v] == pinPresent
	if e.pin[v] == pinFree {
		sc := e.sched
		s := sc.stepOf[v]
		st := sc.steps[s]
		slab, at := e.tables(s)
		for j, u := range sc.outVars[st.outs:sc.steps[s+1].outs] {
			bit := 0
			if w.draw(rng, u) {
				bit = 1
			}
			at += bit << j
		}
		if total := slab[at]; total > 0 {
			on = rng.Float64()*total < slab[len(slab)/2+at]
		}
	}
	w.on.AddIf(ed, on)
	w.off.AddIf(ed, !on)
	w.touched = append(w.touched, v)
	return on
}
