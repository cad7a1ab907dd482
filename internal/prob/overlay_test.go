package prob_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// pinsOf returns the variables of the uncertain edges among edges.
func pinsOf(pg *prob.PGraph, edges []graph.EdgeID) map[int32]bool {
	pins := map[int32]bool{}
	for _, ed := range edges {
		if v := pg.VarOf(ed); v >= 0 {
			pins[v] = true
		}
	}
	return pins
}

// newlyPinned returns the variables pins pins that evidence leaves free.
func newlyPinned(evidence, pins map[int32]bool) []int32 {
	var out []int32
	for v := range pins {
		if _, had := evidence[v]; !had {
			out = append(out, v)
		}
	}
	return out
}

// dirtyPath returns, ascending, the steps of the pinned variables and every
// step above them: a step's table is multiplied in by the step of its
// earliest-eliminated output variable, up to a root, a step with no
// outputs. It reads only the schedule's order and its parent lists.
func dirtyPath(e *prob.Engine, pinned []int32) []int32 {
	order := e.EliminationOrder()
	stepOf := make([]int32, len(order))
	for s, v := range order {
		stepOf[v] = int32(s)
	}
	dirty := map[int32]bool{}
	for _, v := range pinned {
		for s := stepOf[v]; !dirty[s]; {
			dirty[s] = true
			parents := e.Parents(order[s])
			if len(parents) == 0 {
				break
			}
			up := int32(len(order))
			for _, u := range parents {
				up = min(up, stepOf[u])
			}
			s = up
		}
	}
	var out []int32
	for s := range dirty {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// TestOverlayRecomputesOnlyDirtySteps: ProbLits, on the base engine and on
// a conditioned one, and NewConditioned, from either, recompute exactly the
// steps on a path from a newly pinned variable's step to a root — the
// variables the engine's own evidence leaves free — and keep no other
// table.
func TestOverlayRecomputesOnlyDirtySteps(t *testing.T) {
	var recomputed, steps int
	check := func(tag string, e *prob.Engine, got []int32, pinned []int32) {
		t.Helper()
		want := dirtyPath(e, pinned)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: recomputed steps %v, dirty path %v of pinned %v", tag, got, want, pinned)
		}
		recomputed += len(got)
		steps += len(e.EliminationOrder())
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg := parityPGraph(rng)
		eng, err := prob.NewEngine(pg)
		if err != nil {
			t.Fatal(err)
		}
		if got := eng.OwnSteps(); len(got) != len(eng.EliminationOrder()) {
			t.Fatalf("seed %d: base engine holds %d of %d steps", seed, len(got), len(eng.EliminationOrder()))
		}
		for trial := 0; trial < 4; trial++ {
			tag := fmt.Sprintf("seed %d trial %d", seed, trial)
			edges := parityEdges(rng, pg)
			p, got, err := eng.ProbLitsSteps(edges)
			if q, _ := eng.ProbLits(edges); err != nil || !sameBits(p, q) {
				t.Fatalf("%s: ProbLitsSteps %v, %v; ProbLits %v", tag, p, err, q)
			}
			evidence := pinsOf(pg, edges)
			check(tag+" ProbLits", eng, got, newlyPinned(nil, evidence))
			c, err := eng.NewConditioned(edges)
			if err != nil {
				t.Fatal(err)
			}
			check(tag+" NewConditioned", eng, c.OwnSteps(), newlyPinned(nil, evidence))
			more := parityEdges(rng, pg)
			if c.Z() > 0 {
				_, got, err := c.ProbLitsSteps(more)
				if err != nil {
					t.Fatal(err)
				}
				both := pinsOf(pg, append(slices.Clip(edges), more...))
				check(tag+" conditioned ProbLits", c, got, newlyPinned(evidence, both))
			}
			cc, err := c.NewConditioned(more)
			if err != nil {
				t.Fatal(err)
			}
			check(tag+" re-conditioned", eng, cc.OwnSteps(), newlyPinned(nil, pinsOf(pg, more)))
		}
	}
	if recomputed == 0 || recomputed >= steps {
		t.Fatalf("fixture recomputed %d of %d steps: it should exercise both dirty and clean steps", recomputed, steps)
	}
	t.Logf("recomputed %d of %d steps", recomputed, steps)
}

// TestOverlayConcurrentQueries: goroutines sharing one base engine and its
// overlays — ProbLits through the pooled scratch on both, overlays built
// from both, lazy draws through the shared tables — get the values a serial
// run gets. Under -race it also checks that none of it writes shared state.
func TestOverlayConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pg := parityPGraph(rng)
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		evidence, edges []graph.EdgeID
		want            float64
	}
	var queries []query
	for len(queries) < 16 {
		q := query{evidence: parityEdges(rng, pg), edges: parityEdges(rng, pg)}
		c, err := eng.NewConditioned(q.evidence)
		if err != nil || c.Z() == 0 {
			continue
		}
		if q.want, err = c.ProbLits(q.edges); err != nil {
			t.Fatal(err)
		}
		queries = append(queries, q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w, sm := prob.NewLazyWorld(eng), prob.NewSplitMix(int64(g))
			for i := 0; i < 50; i++ {
				q := queries[(g+i)%len(queries)]
				from := eng
				if i%2 == 1 { // an overlay conditioned from an overlay
					var err error
					if from, err = eng.NewConditioned(queries[i%len(queries)].evidence); err != nil {
						errs <- err
						return
					}
				}
				c, err := from.NewConditioned(q.evidence)
				if err != nil {
					errs <- err
					return
				}
				if _, err := eng.ProbLits(q.edges); err != nil {
					errs <- err
					return
				}
				if p, err := c.ProbLits(q.edges); err != nil || !sameBits(p, q.want) {
					errs <- fmt.Errorf("goroutine %d: ProbLits = %v, %v; serial %v", g, p, err, q.want)
					return
				}
				w.Reset(c)
				for ed := 0; ed < pg.G.NumEdges(); ed++ {
					w.Present(&sm, graph.EdgeID(ed))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
