// Ablation benchmarks for the design choices the paper motivates and
// docs/ARCHITECTURE.md documents: the PMI build (exact cells), optimized
// vs random query-time bound combination (OPT-SSPBound vs SSPBound),
// Monte-Carlo sample counts, and the load-bearing kernels (VF2, canonical
// codes).
package probgraph_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"probgraph"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

// BenchmarkAblationPMIBuild times a whole database build, the PMI's cells
// among its stages.
func BenchmarkAblationPMIBuild(b *testing.B) {
	_, raw := microDB(b)
	opt := probgraph.DefaultBuildOptions()
	opt.Feature.MaxL = 4
	opt.Feature.Beta = 0.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := probgraph.NewDatabase(raw.Graphs, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationQueryBounds(b *testing.B) {
	db, raw := microDB(b)
	rng := rand.New(rand.NewSource(17))
	q := probgraph.ExtractQuery(raw.Graphs[2].G, 5, rng)
	for _, cfg := range []struct {
		name string
		opt  bool
	}{{"OPT-SSPBound", true}, {"SSPBound-random", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
					Epsilon: 0.5, Delta: 1, OptBounds: cfg.opt,
					Verifier: probgraph.VerifierNone, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAblationSMPSamples(b *testing.B) {
	db, raw := microDB(b)
	rng := rand.New(rand.NewSource(19))
	q := probgraph.ExtractQuery(raw.Graphs[0].G, 5, rng)
	for _, n := range []int{200, 800, 3200} {
		b.Run(byteCount(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
					Epsilon: 0.5, Delta: 1, OptBounds: true,
					Verify: verify.Options{N: n}, Seed: int64(i),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func byteCount(n int) string {
	switch n {
	case 200:
		return "N=200"
	case 800:
		return "N=800"
	default:
		return "N=3200"
	}
}

func BenchmarkKernelVF2Exists(b *testing.B) {
	_, raw := microDB(b)
	rng := rand.New(rand.NewSource(23))
	target := raw.Graphs[0].G
	q := probgraph.ExtractQuery(target, 6, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iso.Exists(q, target, nil)
	}
}

func BenchmarkKernelVF2EdgeSets(b *testing.B) {
	_, raw := microDB(b)
	rng := rand.New(rand.NewSource(29))
	target := raw.Graphs[1].G
	q := probgraph.ExtractQuery(target, 4, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iso.EdgeSets(q, target, nil, 32)
	}
}

// BenchmarkEdgeSets times the pruner's strict enumeration: for one query,
// iso.EdgeSets of every mined feature in it, uncapped, as newPruner derives
// the rq ⊆iso f relation. The database is ledger-shaped — 120 GeneratePPI
// graphs of 12–18 vertices, 8 organisms, correlated, mined at β 0.2, α and
// γ 0.1, maxL 4 — and the queries are cut from it at the ledger's three
// sizes, eight of each; an op is one query.
func BenchmarkEdgeSets(b *testing.B) {
	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: 120, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	opt := probgraph.DefaultBuildOptions()
	opt.Feature.Beta, opt.Feature.Alpha, opt.Feature.Gamma, opt.Feature.MaxL = 0.2, 0.1, 0.1, 4
	db, err := probgraph.NewDatabase(raw.Graphs, opt)
	if err != nil {
		b.Fatal(err)
	}
	feats := db.View().PMI.Features
	for _, edges := range []int{4, 6, 10} {
		rng := rand.New(rand.NewSource(int64(edges)))
		var qs []*graph.Graph
		for len(qs) < 8 {
			if q := probgraph.ExtractQuery(raw.Graphs[rng.Intn(len(raw.Graphs))].G, edges, rng); q.NumEdges() == edges {
				qs = append(qs, q)
			}
		}
		b.Run(fmt.Sprintf("%dedges", edges), func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(feats)), "features")
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				for _, f := range feats {
					iso.EdgeSets(f, q, nil, 0)
				}
			}
		})
	}
}

// BenchmarkEdgeSetsWithin times one candidate's verification DNF for a
// ten-edge query at δ 2 over the PPI graph it was cut from: one budgeted
// enumeration of q (what the query path runs) beside the per-rq loop it
// replaced — iso.EdgeSets for each of U's members, at most 64 sets each,
// then DedupClauses — with U derived outside the loop, as the plan did.
func BenchmarkEdgeSetsWithin(b *testing.B) {
	_, raw := microDB(b)
	rng := rand.New(rand.NewSource(37))
	target := raw.Graphs[3].G
	q := probgraph.ExtractQuery(target, 10, rng)
	const delta = 2
	u := relax.Relaxed(q, delta, 0)
	perRQ := func() []graph.EdgeSet {
		var clauses []graph.EdgeSet
		for _, rq := range u {
			clauses = append(clauses, iso.EdgeSets(rq, target, nil, 64)...)
		}
		return verify.DedupClauses(clauses)
	}
	sets := iso.EdgeSetsWithin(q, target, delta, 4096)
	if len(sets) == 0 || len(sets) != len(perRQ()) {
		b.Fatalf("%d sets from the enumeration, %d from the per-rq loop", len(sets), len(perRQ()))
	}
	b.Run("within", func(b *testing.B) {
		b.ReportMetric(float64(len(sets)), "sets")
		for i := 0; i < b.N; i++ {
			iso.EdgeSetsWithin(q, target, delta, 4096)
		}
	})
	b.Run("per-rq", func(b *testing.B) {
		b.ReportMetric(float64(len(u)), "rq")
		for i := 0; i < b.N; i++ {
			perRQ()
		}
	})
}

func BenchmarkKernelCanonicalCode(b *testing.B) {
	_, raw := microDB(b)
	rng := rand.New(rand.NewSource(31))
	q := probgraph.ExtractQuery(raw.Graphs[2].G, 6, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.CanonicalCode(q)
	}
}
