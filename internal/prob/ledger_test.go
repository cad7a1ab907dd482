package prob_test

import (
	"math/rand"
	"sync"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/prob"
)

// ledgerClass is one workload class of the ledger (bench/corpus.go) with
// its queries' structural candidates: every corpus graph in which some
// relaxed query embeds, and there the clause list verification prepares —
// one all-present clause per distinct edge set of the budgeted search.
type ledgerClass struct {
	name  string
	cands []ledgerCandidate
}

type ledgerCandidate struct {
	eng     *prob.Engine
	clauses [][]graph.EdgeID
}

var ledgerOnce struct {
	sync.Once
	classes []ledgerClass
	err     error
}

// ledgerClasses builds the ledger's corpus (120 GeneratePPI graphs, seed
// 1) and draws each class's queries as the ledger draws them, the first
// eight per query class: engine-verify's 4-edge queries at δ 1 and δ 2,
// engine-filter's 10-edge queries at δ 2, and the serve-* workloads'
// 6-edge queries at δ 1.
func ledgerClasses(tb testing.TB) []ledgerClass {
	tb.Helper()
	ledgerOnce.Do(func() {
		db, err := dataset.GeneratePPI(dataset.PPIOptions{
			NumGraphs: 120, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 1,
		})
		if err != nil {
			ledgerOnce.err = err
			return
		}
		engines := make([]*prob.Engine, len(db.Graphs))
		for i, pg := range db.Graphs {
			if engines[i], err = prob.NewEngine(pg); err != nil {
				ledgerOnce.err = err
				return
			}
		}
		type queryClass struct{ index, edges, delta int }
		for _, w := range []struct {
			name    string
			classes []queryClass
		}{
			{"engine-verify", []queryClass{{0, 4, 1}, {1, 4, 2}}},
			{"engine-filter", []queryClass{{0, 10, 2}}},
			{"serve", []queryClass{{0, 6, 1}}},
		} {
			lc := ledgerClass{name: w.name}
			for _, cl := range w.classes {
				rng := rand.New(rand.NewSource(1 + 7919*int64(cl.index+1) + int64(cl.edges)))
				for n := 0; n < 8; {
					q := dataset.ExtractQuery(db.Graphs[rng.Intn(len(db.Graphs))].G, cl.edges, rng)
					if q.NumEdges() != cl.edges {
						continue
					}
					n++
					for gi, pg := range db.Graphs {
						if sets := iso.EdgeSetsWithin(q, pg.G, cl.delta, 4096); len(sets) > 0 {
							lc.cands = append(lc.cands, ledgerCandidate{engines[gi], prob.PresentClauses(sets)})
						}
					}
				}
			}
			ledgerOnce.classes = append(ledgerOnce.classes, lc)
		}
	})
	if ledgerOnce.err != nil {
		tb.Fatal(ledgerOnce.err)
	}
	return ledgerOnce.classes
}
