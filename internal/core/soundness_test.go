package core

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/pmi"
	"probgraph/internal/relax"
)

// TestBoundsSandwichExactSSP is the central safety property of the whole
// pruning pipeline: for every structural candidate, Usim(q) must upper-
// bound and the sound Lsim(q) must lower-bound the exact subgraph
// similarity probability — otherwise Pruning 1 could drop true answers or
// Pruning 2 could accept false ones.
func TestBoundsSandwichExactSSP(t *testing.T) {
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
		opt := DefaultBuildOptions()
		opt.Feature.Beta = 0.2
		opt.Feature.Alpha = 0.05
		opt.Feature.Gamma = 0.05
		opt.Feature.MaxL = 3
		opt.PMI.Seed = seed
		db, err := NewDatabase(raw.Graphs, opt)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 1))
		q := dataset.ExtractQuery(db.View().Certain[int(seed)%len(db.View().Certain)], 4, rng)
		if q.NumEdges() < 2 {
			return true
		}
		const delta = 1
		u, deleted := relax.Members(q, delta, 0)
		scq, _ := db.View().Struct.SCq(q, delta, 1)
		for _, optBounds := range []bool{false, true} {
			qo := QueryOptions{Epsilon: 0.5, Delta: delta, OptBounds: optBounds, Seed: seed}
			pr, err := db.View().newPruner(context.Background(), q, u, deleted, qo.withDefaults())
			if err != nil {
				t.Fatal(err)
			}
			for _, gi := range scq {
				exact, err := db.View().ExactSSPByEnumeration(q, gi, delta)
				if err != nil {
					t.Fatal(err)
				}
				sc := getScratch(candSeed(qo.Seed^pruneSalt, gi))
				sc.entries = db.View().PMI.LookupInto(gi, sc.entries[:0])
				upper := pr.upperBound(sc.entries, sc)
				lower := pr.lowerBound(sc.entries, sc)
				putScratch(sc)
				const slack = 1e-9
				if upper < exact-slack {
					t.Logf("seed %d opt=%v graph %d: Usim %v < exact SSP %v", seed, optBounds, gi, upper, exact)
					return false
				}
				if lower > exact+slack {
					t.Logf("seed %d opt=%v graph %d: Lsim %v > exact SSP %v", seed, optBounds, gi, lower, exact)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
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
		opt := DefaultBuildOptions()
		opt.SkipPMI = true
		db, err := NewDatabase(raw.Graphs, opt)
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

// TestMaskRelationsMatchPerRQTables: deciding f ⊆iso rq from the embeddings
// of f in q and rq's deletion mask, and rq ⊆iso f only where sizes allow,
// builds exactly the tables the per-pair tests built — on mined PPI
// vocabularies, at δ 0 with an isolated query vertex, under a MaxRelaxed
// cap, and for a hand-made feature that has an isolated vertex itself.
func TestMaskRelationsMatchPerRQTables(t *testing.T) {
	check := func(name string, features []*graph.Graph, q *graph.Graph, delta, maxRelaxed int) {
		t.Helper()
		u, deleted := relax.Members(q, delta, maxRelaxed)
		v := &View{PMI: &pmi.Index{Features: features}}
		pr, err := v.newPruner(bg, q, u, deleted, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		supOf, subOf := relationsPerRQ(features, u)
		if !reflect.DeepEqual(pr.supOf, supOf) || !reflect.DeepEqual(pr.subOf, subOf) {
			t.Errorf("%s δ=%d cap=%d (|U| = %d, q = %v):\n supOf %v\n  want %v\n subOf %v\n  want %v",
				name, delta, maxRelaxed, len(u), q, pr.supOf, supOf, pr.subOf, subOf)
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
		u, _ := relax.Members(dataset.ExtractQuery(raw.Graphs[0].G, 4, rng), 1, 0)
		sup, sub := relationsPerRQ(features, u)
		for j := range sup {
			related += len(sup[j]) + len(sub[j])
		}
	}
	if related == 0 {
		t.Fatal("no feature related to any relaxed query: the comparison was vacuous")
	}
}
