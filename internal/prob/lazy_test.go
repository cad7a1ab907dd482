package prob_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"probgraph/internal/graph"
	"probgraph/internal/prob"
)

// lazyEngines returns the parity model's engine and, when their evidence
// has positive mass, two overlays on it: one conditioned on random evidence
// and one conditioned from that one on other evidence; refs holds the
// reference engine conditioned alike beside each.
func lazyEngines(t *testing.T, rng *rand.Rand, pg *prob.PGraph) (engs []*prob.Engine, refs []*prob.RefEngine) {
	t.Helper()
	eng, err := prob.NewEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prob.NewRefEngine(pg)
	if err != nil {
		t.Fatal(err)
	}
	engs, refs = []*prob.Engine{eng}, []*prob.RefEngine{ref}
	for len(engs) < 3 {
		evidence := parityEdges(rng, pg)
		c, err := engs[len(engs)-1].NewConditioned(evidence)
		if err != nil || c.Z() == 0 {
			break
		}
		rc, err := refs[len(refs)-1].NewConditioned(prob.RefPresent(evidence))
		if err != nil {
			t.Fatal(err)
		}
		engs, refs = append(engs, c), append(refs, rc)
	}
	return engs, refs
}

// within reports whether an observed frequency is within five standard
// deviations of a binomial proportion p over n draws, plus two draws.
func within(freq, p float64, n int) bool {
	return math.Abs(freq-p) <= 5*math.Sqrt(p*(1-p)/float64(n))+2/float64(n)
}

// TestLazyWorldMarginals asks random edge subsets — certain edges included —
// in a fresh random order per sample. Each assignment's frequency, absent
// edges and all, must match the reference engine's ProbLits, and no sample
// may draw a variable outside the ancestral closure of the edges it asked
// about: their unpinned variables and, recursively, the unpinned parents
// (step outputs) of those.
func TestLazyWorldMarginals(t *testing.T) {
	const n = 3000
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg := parityPGraph(rng)
		engs, refs := lazyEngines(t, rng, pg)
		for ei, e := range engs {
			tag := fmt.Sprintf("seed %d engine %d", seed, ei)
			edges := make([]graph.EdgeID, 1+rng.Intn(min(3, pg.G.NumEdges())))
			for i, ed := range rng.Perm(pg.G.NumEdges())[:len(edges)] {
				edges[i] = graph.EdgeID(ed)
			}
			w := prob.NewLazyWorld(e)
			sm := prob.NewSplitMix(seed)
			counts := make([]int, 1<<len(edges))
			for s := 0; s < n; s++ {
				w.Reset(e)
				m := 0
				for _, i := range rng.Perm(len(edges)) {
					if w.Present(&sm, edges[i]) {
						m |= 1 << i
					}
				}
				counts[m]++
				checkAncestral(t, tag, e, pg, edges, w.Drawn())
			}
			for m, c := range counts {
				lits := make([]prob.RefLiteral, len(edges))
				for i, ed := range edges {
					lits[i] = prob.RefLiteral{Edge: ed, Present: m>>i&1 == 1}
				}
				p, err := refs[ei].ProbLits(lits)
				if err != nil {
					t.Fatal(err)
				}
				if f := float64(c) / n; !within(f, p, n) {
					t.Fatalf("%s: assignment %v drawn with frequency %v, ProbLits %v", tag, lits, f, p)
				}
			}
		}
	}
}

// checkAncestral fails unless every drawn variable is in the ancestral
// closure of the asked edges, drawn once, and every unpinned asked
// variable is drawn.
func checkAncestral(t *testing.T, tag string, e *prob.Engine, pg *prob.PGraph, asked []graph.EdgeID, drawn []int32) {
	t.Helper()
	closure := map[int32]bool{}
	var stack []int32
	for _, ed := range asked {
		if pg.IsUncertain(ed) {
			stack = append(stack, pg.VarOf(ed))
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if e.Pinned(v) || closure[v] {
			continue
		}
		closure[v] = true
		stack = append(stack, e.Parents(v)...)
	}
	seen := map[int32]bool{}
	for _, v := range drawn {
		if e.Pinned(v) {
			continue // read, not drawn
		}
		if !closure[v] || seen[v] {
			t.Fatalf("%s: drew variable %v (twice: %v) asking for edges %v; closure %v", tag, v, seen[v], asked, closure)
		}
		seen[v] = true
	}
	if len(seen) != len(closure) {
		t.Fatalf("%s: drew %v asking for edges %v; closure %v", tag, drawn, asked, closure)
	}
}

// splitMixSource feeds math/rand the uniforms SplitMix.Float64 yields:
// rand.Float64 divides Int63 by 2^63, so the top 53 bits shifted to bit 10
// give the same float exactly.
type splitMixSource struct{ prob.SplitMix }

func (s *splitMixSource) Int63() int64 { return int64(s.Uint64() >> 11 << 10) }
func (s *splitMixSource) Seed(int64)   {}

// TestLazyWorldDescendingIsSampleWorld: asking for every variable in
// descending step order is SampleWorldInto. Without evidence both take one
// uniform per step with a positive total, so from equal streams the worlds
// are equal bit for bit; with evidence (the overlays, whose clean steps read
// the base engine's tables) SampleWorldInto also draws for pinned variables,
// so there the two world distributions must agree.
func TestLazyWorldDescendingIsSampleWorld(t *testing.T) {
	const n = 3000
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pg := parityPGraph(rng)
		unc := pg.UncertainEdges()
		engs, _ := lazyEngines(t, rng, pg)
		for ei, e := range engs {
			tag := fmt.Sprintf("seed %d engine %d", seed, ei)
			order := e.EliminationOrder()
			w := prob.NewLazyWorld(e)
			sm, src := prob.NewSplitMix(seed), &splitMixSource{prob.NewSplitMix(seed)}
			full := rand.New(src)
			world, lazy := graph.NewEdgeSet(e.NumEdges()), graph.NewEdgeSet(e.NumEdges())
			scratch := make([]bool, e.NumUncertain())
			freq := map[string][2]int{}
			for s := 0; s < n; s++ {
				e.SampleWorldInto(full, world, scratch)
				w.Reset(e)
				lazy.CopyFrom(pg.NewWorld())
				for i := len(order) - 1; i >= 0; i-- {
					ed := unc[order[i]]
					lazy.AddIf(ed, w.Present(&sm, ed))
				}
				if ei == 0 {
					if world.Key() != lazy.Key() {
						t.Fatalf("%s: sample %d: SampleWorldInto %v, lazy %v", tag, s, world.Slice(), lazy.Slice())
					}
					continue
				}
				c := freq[world.Key()]
				c[0]++
				freq[world.Key()] = c
				c = freq[lazy.Key()]
				c[1]++
				freq[lazy.Key()] = c
			}
			for k, c := range freq {
				f0, f1 := float64(c[0])/n, float64(c[1])/n
				p := (f0 + f1) / 2
				if math.Abs(f0-f1) > 5*math.Sqrt(2*p*(1-p)/n)+2.0/n {
					t.Fatalf("%s: world %q drawn with frequency %v by SampleWorldInto, %v lazily", tag, k, f0, f1)
				}
			}
		}
	}
}
