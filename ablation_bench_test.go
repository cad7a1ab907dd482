// Ablation benchmarks for the design choices the paper motivates and
// DESIGN.md documents: clique-optimized vs greedy bound families
// (OPT-SIPBound vs SIPBound), optimized vs random query-time bound
// combination (OPT-SSPBound vs SSPBound), Monte-Carlo sample counts, and
// the load-bearing kernels (VF2, canonical codes, minimal cuts).
package probgraph_test

import (
	"context"
	"math/rand"
	"testing"

	"probgraph"
	"probgraph/internal/cuts"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

func BenchmarkAblationPMIBuild(b *testing.B) {
	_, raw := microDB(b)
	for _, cfg := range []struct {
		name     string
		optimize bool
	}{{"OPT-SIPBound", true}, {"SIPBound-greedy", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			opt := probgraph.DefaultBuildOptions()
			opt.Feature.MaxL = 4
			opt.Feature.Beta = 0.2
			opt.PMI.Optimize = cfg.optimize
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := probgraph.NewDatabase(raw.Graphs, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
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

func BenchmarkKernelMinimalCuts(b *testing.B) {
	_, raw := microDB(b)
	rng := rand.New(rand.NewSource(37))
	target := raw.Graphs[3].G
	q := probgraph.ExtractQuery(target, 3, rng)
	embs := iso.EdgeSets(q, target, nil, 16)
	if len(embs) == 0 {
		b.Skip("no embeddings for this seed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cuts.MinimalCuts(embs, target.NumEdges(), 32)
	}
}
