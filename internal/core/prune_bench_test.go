package core

import (
	"fmt"
	"math/rand"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/relax"
)

// BenchmarkNewPruner times the pruner's construction, the feature ↔ rq
// relations pmi_prune and top-k's bounds stage build, with the lower
// relation (a threshold plan) and without it (a ranking). The database is
// BenchmarkEdgeSets' ledger-shaped one — 120 GeneratePPI graphs of 12–18
// vertices, 8 organisms, correlated, mined at β 0.2, α and γ 0.1, maxL 4 —
// and the queries are cut from it at the ledger's three sizes and
// budgets: eight each of 4 edges at δ 1, 6 at δ 1 and 10 at δ 2. U is
// derived outside the timed loop; an op is one query's construction.
func BenchmarkNewPruner(b *testing.B) {
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 120, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.Feature.Beta, opt.Feature.Alpha, opt.Feature.Gamma, opt.Feature.MaxL = 0.2, 0.1, 0.1, 4
	db, err := NewDatabase(raw.Graphs, opt)
	if err != nil {
		b.Fatal(err)
	}
	v := db.View()
	for _, c := range []struct{ edges, delta int }{{4, 1}, {6, 1}, {10, 2}} {
		rng := rand.New(rand.NewSource(int64(c.edges)))
		var qs []*graph.Graph
		var us [][]graph.EdgeSet
		for len(qs) < 8 {
			if q := dataset.ExtractQuery(raw.Graphs[rng.Intn(len(raw.Graphs))].G, c.edges, rng); q.NumEdges() == c.edges {
				qs, us = append(qs, q), append(us, relax.Members(q, c.delta, 0))
			}
		}
		for _, lower := range []bool{true, false} {
			b.Run(fmt.Sprintf("%dedges-d%d/lower=%v", c.edges, c.delta, lower), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(v.PMI.NumFeatures()), "features")
				qo := QueryOptions{Delta: c.delta}
				for i := 0; i < b.N; i++ {
					if _, err := v.newPruner(bg, qs[i%len(qs)], us[i%len(qs)], false, qo, lower); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
