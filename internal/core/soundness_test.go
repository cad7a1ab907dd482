package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/pmi"
	"probgraph/internal/prob"
	"probgraph/internal/relax"
)

// TestBoundsSandwichExactSSP is the central safety property of the whole
// pruning pipeline: for every structural candidate, Usim(q) must upper-
// bound and Lsim(q) must lower-bound the exact subgraph similarity
// probability, and a candidate judge prunes or accepts must be a true
// non-answer or answer — otherwise Pruning 1 could drop true answers or
// Pruning 2 could accept false ones. Swept over δ 1 and δ 2 (at δ 2 the
// two-edge relaxed queries of a four-edge query fit inside mined features,
// so subOf is non-empty and Lsim is not trivially 0), over the generator's
// correlation strengths, and over adversarial JPTs.
func TestBoundsSandwichExactSSP(t *testing.T) {
	var positiveLsim, accepted int
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		raw, err := dataset.GeneratePPI(dataset.PPIOptions{
			NumGraphs: 6, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
			Labels: 3, Organisms: 2, Correlated: true,
			CorrelationBoost: float64(seed%3) * 0.8, // sweep correlation strength
			Seed:             seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		graphs := raw.Graphs
		if seed%2 == 1 {
			graphs = adversarialJPTs(graphs, rand.New(rand.NewSource(seed)))
		}
		opt := DefaultBuildOptions()
		opt.Feature.Beta = 0.2
		opt.Feature.Alpha = 0.05
		opt.Feature.Gamma = 0.05
		opt.Feature.MaxL = 3
		opt.PMI.Seed = seed
		db, err := NewDatabase(graphs, opt)
		if err != nil {
			t.Fatal(err)
		}
		v := db.View()
		rng := rand.New(rand.NewSource(seed + 1))
		q := dataset.ExtractQuery(v.Certain[int(seed)%len(v.Certain)], 4, rng)
		for delta := 1; delta <= 2 && delta < q.NumEdges(); delta++ {
			deleted := relax.Members(q, delta, 0)
			scq, _ := v.Struct.SCq(q, delta, 1)
			for _, optBounds := range []bool{false, true} {
				qo := QueryOptions{Epsilon: []float64{0.5, 0.3, 0.1}[seed%3], Delta: delta, OptBounds: optBounds, Seed: seed}
				pr, err := v.newPruner(context.Background(), q, deleted, qo.withDefaults(), true)
				if err != nil {
					t.Fatal(err)
				}
				for _, gi := range scq {
					exact, err := v.ExactSSPByEnumeration(q, gi, delta)
					if err != nil {
						t.Fatal(err)
					}
					upper, sc := pr.usim(gi)
					lower := pr.lowerBound(sc)
					putScratch(sc)
					verdict := pr.judge(gi)
					if lower > 0 {
						positiveLsim++
					}
					if verdict == judgeAccept {
						accepted++
					}
					const slack = 1e-9
					at := func() string {
						return fmt.Sprintf("seed %d δ=%d opt=%v ε=%v graph %d", seed, delta, optBounds, qo.Epsilon, gi)
					}
					switch {
					case upper < exact-slack:
						t.Logf("%s: Usim %v < exact SSP %v", at(), upper, exact)
					case lower > exact+slack:
						t.Logf("%s: Lsim %v > exact SSP %v", at(), lower, exact)
					case verdict == judgeAccept && exact < qo.Epsilon-slack:
						t.Logf("%s: accepted on Lsim %v, exact SSP %v", at(), lower, exact)
					case verdict == judgePrune && exact >= qo.Epsilon+slack:
						t.Logf("%s: pruned on Usim %v, exact SSP %v", at(), upper, exact)
					default:
						continue
					}
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	if positiveLsim == 0 || accepted == 0 {
		t.Fatalf("Lsim > 0 on %d candidates, %d accepted: the lower side of the sandwich was never exercised", positiveLsim, accepted)
	}
}

// adversarialJPTs returns copies of the graphs whose tables are the ones a
// bound that assumed independence would get wrong: every table over two or
// more neighbour edges becomes all-or-nothing — its edges exist together
// with probability p and not at all otherwise, the strongest positive
// correlation a table can carry — and single-edge tables, and some of the
// larger ones, sit at probability 0 or 1.
func adversarialJPTs(graphs []*prob.PGraph, rng *rand.Rand) []*prob.PGraph {
	out := make([]*prob.PGraph, len(graphs))
	for i, pg := range graphs {
		jpts := make([]prob.JPT, len(pg.JPTs))
		for k, j := range pg.JPTs {
			p := []float64{0, 1, 0.2 + 0.6*rng.Float64(), 0.2 + 0.6*rng.Float64()}[rng.Intn(4)]
			tab := make([]float64, len(j.P))
			tab[0], tab[len(tab)-1] = 1-p, p
			jpts[k] = prob.JPT{Edges: slices.Clone(j.Edges), P: tab}
		}
		out[i] = prob.MustNew(pg.G, jpts)
	}
	return out
}

// bonferroniBest is the reference for the bound lowerBound replaced: the
// correlation-safe lower bound on a union, Σ L − Σ_{i<j} min(U_i, U_j), at
// its best over every non-empty sub-family of the entries, by brute force.
func bonferroniBest(entries []pmi.Entry) float64 {
	best := 0.0
	for family := 1; family < 1<<len(entries); family++ {
		v := 0.0
		for i, a := range entries {
			if family>>i&1 == 0 {
				continue
			}
			v += a.Lower
			for j, b := range entries[:i] {
				if family>>j&1 == 1 {
					v -= min(a.Upper, b.Upper)
				}
			}
		}
		best = max(best, v)
	}
	return best
}

// TestBonferroniNeverBeatsBestMember pins the argument that retired the
// family optimiser: with U ≥ L no sub-family's Bonferroni bound exceeds the
// family's largest single LowerB — which the singleton family attains — so
// Lsim is that maximum, and lowerBound returns it. An optimiser that claims
// more from the same marginals has to fail this test first.
func TestBonferroniNeverBeatsBestMember(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		entries := make([]pmi.Entry, 1+rng.Intn(8))
		rels := make([]relation, len(entries))
		largest := 0.0
		for j := range entries {
			lo := rng.Float64()
			if trial%4 == 0 {
				lo *= 0.05 // small events, where Σ L stays below 1
			}
			up := lo + rng.Float64()*(1-lo)
			if rng.Intn(3) == 0 {
				up = lo // a tight cell
			}
			entries[j] = pmi.Entry{Contained: true, Lower: lo, Upper: up}
			rels[j] = relation{f: j, sub: []int{0}}
			largest = max(largest, lo)
		}
		if got := bonferroniBest(entries); got < largest || got > largest+1e-12 {
			t.Fatalf("trial %d: best Bonferroni bound %v over the sub-families of %v, largest LowerB %v", trial, got, entries, largest)
		}
		pr := &pruner{nu: 1, opt: QueryOptions{OptBounds: true}, rels: rels}
		if got := pr.lowerBound(&scratch{row: entries}); got != largest {
			t.Fatalf("trial %d: lowerBound %v, largest LowerB %v", trial, got, largest)
		}
	}
}

// TestStructuralPruningNeverDropsAnswers checks Theorem 1 end to end:
// every graph with nonzero exact SSP must survive structural pruning.
func TestStructuralPruningNeverDropsAnswers(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		raw, err := dataset.GeneratePPI(dataset.PPIOptions{
			NumGraphs: 6, MinVertices: 5, MaxVertices: 7,
			Labels: 3, Organisms: 2, Correlated: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		db, err := NewDatabase(raw.Graphs, DefaultBuildOptions())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
		if q.NumEdges() < 2 {
			return true
		}
		const delta = 1
		scq, _ := db.View().Struct.SCq(q, delta, 1)
		inSCQ := make(map[int]bool, len(scq))
		for _, gi := range scq {
			inSCQ[gi] = true
		}
		for gi := range db.View().Graphs {
			exact, err := db.View().ExactSSPByEnumeration(q, gi, delta)
			if err != nil {
				t.Fatal(err)
			}
			if exact > 0 && !inSCQ[gi] {
				t.Logf("seed %d: graph %d has SSP %v but was structurally pruned", seed, gi, exact)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// relationsPerRQ is the table construction newPruner replaced, kept as its
// reference: two isomorphism tests per (relaxed query, feature) pair.
func relationsPerRQ(features, u []*graph.Graph) (supOf, subOf [][]int) {
	supOf, subOf = make([][]int, len(features)), make([][]int, len(features))
	for i, rq := range u {
		for j, f := range features {
			if iso.Exists(f, rq, nil) {
				supOf[j] = append(supOf[j], i)
			}
			if iso.Exists(rq, f, nil) {
				subOf[j] = append(subOf[j], i)
			}
		}
	}
	return supOf, subOf
}

// relationTables spreads the pruner's relation list over nf features, as
// the tables relationsPerRQ builds: nil for a feature the list leaves out.
// The list must ascend by feature and leave out every feature without a
// relation.
func relationTables(t *testing.T, p *pruner, nf int) (supOf, subOf [][]int) {
	t.Helper()
	supOf, subOf = make([][]int, nf), make([][]int, nf)
	for k, r := range p.rels {
		if (r.sup == nil && r.sub == nil) || (k > 0 && r.f <= p.rels[k-1].f) {
			t.Fatalf("relation %d of %d: feature %d (after %d), sup %v, sub %v", k, len(p.rels), r.f, p.rels[max(k-1, 0)].f, r.sup, r.sub)
		}
		supOf[r.f], subOf[r.f] = r.sup, r.sub
	}
	return supOf, subOf
}

// TestMaskRelationsMatchPerRQTables: deciding f ⊆iso rq from the embeddings
// of f in q and rq's deletion mask, and rq ⊆iso f only where sizes allow,
// builds exactly the tables the per-pair tests built — on mined PPI
// vocabularies, at δ 0 with an isolated query vertex, under a MaxRelaxed
// cap, and for a hand-made feature that has an isolated vertex itself.
func TestMaskRelationsMatchPerRQTables(t *testing.T) {
	check := func(name string, features []*graph.Graph, q *graph.Graph, delta, maxRelaxed int) {
		t.Helper()
		u, deleted := relax.Relaxed(q, delta, maxRelaxed), relax.Members(q, delta, maxRelaxed)
		v := &View{PMI: &pmi.Index{Features: features}}
		pr, err := v.newPruner(bg, q, deleted, QueryOptions{}, true)
		if err != nil {
			t.Fatal(err)
		}
		supOf, subOf := relationsPerRQ(features, u)
		if gotSup, gotSub := relationTables(t, pr, len(features)); !reflect.DeepEqual(gotSup, supOf) || !reflect.DeepEqual(gotSub, subOf) {
			t.Errorf("%s δ=%d cap=%d (|U| = %d, q = %v):\n supOf %v\n  want %v\n subOf %v\n  want %v",
				name, delta, maxRelaxed, len(u), q, gotSup, supOf, gotSub, subOf)
		}
	}
	withIsolated := func(q *graph.Graph, l graph.Label) *graph.Graph {
		b := graph.NewBuilder(q.Name() + "+iso")
		for v := 0; v < q.NumVertices(); v++ {
			b.AddVertex(q.VertexLabel(graph.VertexID(v)))
		}
		b.AddVertex(l)
		for _, e := range q.Edges() {
			b.MustAddEdge(e.U, e.V, e.Label)
		}
		return b.Build()
	}
	related := 0
	for seed := int64(1); seed <= 6; seed++ {
		db, raw := smallDatabase(t, 2000+seed, 8, seed%2 == 0)
		if seed == 6 {
			db, raw = snapDB(t, 10) // default build options: a larger vocabulary
		}
		features := db.View().PMI.Features
		rng := rand.New(rand.NewSource(seed))
		for qi := 0; qi < 6; qi++ {
			q := dataset.ExtractQuery(raw.Graphs[qi%len(raw.Graphs)].G, 2+qi, rng)
			for delta := 0; delta <= 2 && delta < q.NumEdges(); delta++ {
				check("extracted", features, q, delta, 0)
				check("capped", features, q, delta, 2)
			}
			check("isolated vertex", features, withIsolated(q, q.VertexLabel(0)), 0, 0)
			check("isolated vertex", features, withIsolated(q, "nowhere"), 1, 0)
			// A feature with an isolated vertex is contained only in an rq
			// that kept a spare vertex of that label.
			odd := append(slices.Clone(features), withIsolated(features[0], q.VertexLabel(0)), withIsolated(q, q.VertexLabel(0)))
			check("feature with isolated vertex", odd, q, 1, 0)
			check("feature with isolated vertex", odd, withIsolated(q, q.VertexLabel(0)), 0, 0)
		}
		u := relax.Relaxed(dataset.ExtractQuery(raw.Graphs[0].G, 4, rng), 1, 0)
		sup, sub := relationsPerRQ(features, u)
		for j := range sup {
			related += len(sup[j]) + len(sub[j])
		}
	}
	if related == 0 {
		t.Fatal("no feature related to any relaxed query: the comparison was vacuous")
	}
}

// plusVertex is g with one more vertex labelled l, joined to vertex attach
// by an unlabelled edge unless attach is negative.
func plusVertex(g *graph.Graph, l graph.Label, attach graph.VertexID) *graph.Graph {
	b := graph.NewBuilder(g.Name() + "+" + string(l))
	for v := range g.NumVertices() {
		b.AddVertex(g.VertexLabel(graph.VertexID(v)))
	}
	w := b.AddVertex(l)
	for _, e := range g.Edges() {
		b.MustAddEdge(e.U, e.V, e.Label)
	}
	if attach >= 0 {
		b.MustAddEdge(attach, w, "")
	}
	return b.Build()
}

// TestPrunerRelationBranches: newPruner's shortcuts build the per-pair
// tests' tables on inputs that reach each of them with a non-empty
// relation, counted per (feature, query): a feature with no embedding in q
// (its mask tests skipped; one larger than the members may still hold
// one), a feature of the members' size without isolated vertices (subOf
// read from supOf), one of that size with an isolated vertex (member
// graphs matched, and the two relations differ), a larger feature, and a
// larger one that q is not within δ of (its member tests skipped).
func TestPrunerRelationBranches(t *testing.T) {
	reached := map[string]int{}
	check := func(features []*graph.Graph, q *graph.Graph, delta int) {
		t.Helper()
		u, deleted := relax.Relaxed(q, delta, 0), relax.Members(q, delta, 0)
		v := &View{PMI: &pmi.Index{Features: features}}
		pr, err := v.newPruner(bg, q, deleted, QueryOptions{}, true)
		if err != nil {
			t.Fatal(err)
		}
		supOf, subOf := relationsPerRQ(features, u)
		if gotSup, gotSub := relationTables(t, pr, len(features)); !reflect.DeepEqual(gotSup, supOf) || !reflect.DeepEqual(gotSub, subOf) {
			t.Fatalf("δ=%d (|U| = %d, q = %v):\n supOf %v\n  want %v\n subOf %v\n  want %v", delta, len(u), q, gotSup, supOf, gotSub, subOf)
		}
		size := q.NumEdges() - delta
		for j, f := range features {
			isolated, holds := hasIsolated(f), len(subOf[j]) > 0
			if !isolated && !iso.Exists(f, q, nil) {
				reached["no embedding"]++
				if holds {
					reached["no embedding, larger, holds a member"]++
				}
			}
			switch {
			case !holds && f.NumEdges() > size && !iso.ExistsWithin(q, f, nil, delta):
				reached["larger, q not within δ"]++
			case !holds:
			case f.NumEdges() == size && !isolated:
				reached["equal size"]++
			case f.NumEdges() == size && !reflect.DeepEqual(supOf[j], subOf[j]):
				reached["equal size, isolated vertex, relations differ"]++
			case f.NumEdges() > size && !isolated:
				reached["larger"]++
			}
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		db, raw := smallDatabase(t, 3000+seed, 8, seed%2 == 0)
		rng := rand.New(rand.NewSource(seed))
		for qi := 0; qi < 6; qi++ {
			q := dataset.ExtractQuery(raw.Graphs[qi%len(raw.Graphs)].G, 2+qi, rng)
			features := slices.Clone(db.View().PMI.Features)
			for delta := 0; delta <= 2 && delta < q.NumEdges(); delta++ {
				check(features, q, delta)
			}
			// Hand-made features around the first member at δ 1: it with an
			// isolated vertex of a label q lacks (equal size; contains the
			// member, is contained in none), and it grown by an edge to such
			// a vertex (larger; no embedding in q; contains the member).
			if q.NumEdges() < 2 {
				continue
			}
			m := relax.Member(q, relax.Members(q, 1, 0)[0])
			features = append(features, plusVertex(m, "nowhere", -1), plusVertex(m, "nowhere", 0))
			check(features, q, 1)
		}
	}
	for _, branch := range []string{"no embedding", "no embedding, larger, holds a member", "equal size", "equal size, isolated vertex, relations differ", "larger", "larger, q not within δ"} {
		if reached[branch] == 0 {
			t.Errorf("no case reached %q (reached %v)", branch, reached)
		}
	}
}
