// Command ppi reproduces the paper's motivating workload: subgraph
// similarity search over protein-protein interaction networks whose
// interactions are correlated. It generates a synthetic STRING-like
// database of organism families, extracts pathway queries from a family,
// and shows (a) the filter-and-verify pipeline answering threshold queries
// and (b) the paper's Figure 14 observation — the correlated model
// classifies organisms better than the independent-edge model.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"probgraph"
	"probgraph/internal/stats"
)

func main() {
	const (
		numGraphs = 36
		organisms = 4
		delta     = 1
		epsilon   = 0.4
	)
	fmt.Printf("Generating %d PPI-like probabilistic graphs (%d organisms)...\n", numGraphs, organisms)

	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: numGraphs, Organisms: organisms,
		MinVertices: 8, MaxVertices: 12, EdgeFactor: 1.4,
		MeanProb: 0.7, Mutations: 0.15,
		Correlated: true, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	// IND = the marginal-preserving independent counterpart: identical
	// per-edge marginals, correlations dropped (the paper's Figure 14
	// baseline).
	indRaw, err := probgraph.IndependentCounterpart(raw)
	if err != nil {
		log.Fatal(err)
	}
	build := func(d *probgraph.Dataset) *probgraph.Database {
		opt := probgraph.DefaultBuildOptions()
		opt.Feature.Beta = 0.2
		opt.Feature.MaxL = 4
		db, err := probgraph.NewDatabase(d.Graphs, opt)
		if err != nil {
			log.Fatal(err)
		}
		return db
	}
	corDB := build(raw)
	indDB := build(indRaw)
	fmt.Printf("Indexed: %d PMI features (COR), %d (IND)\n\n", corDB.Build().Features, indDB.Build().Features)

	// Part 1: one threshold query in detail on the correlated model.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	q := probgraph.ExtractQuery(raw.Seeds[0], 5, rng)
	fmt.Println("Query (pathway fragment from organism 0):", q)
	res, err := corDB.View().QueryCtx(ctx, q, probgraph.QueryOptions{
		Epsilon: epsilon, Delta: delta, OptBounds: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε=%.2f δ=%d: %d answers; pipeline %d→%d→%d (struct→PMI→verified), %.1fms total\n",
		epsilon, delta, len(res.Answers),
		res.Stats.StructConfirmed, res.Stats.VerifyCandidates+res.Stats.AcceptedByLower,
		res.Stats.Answers, float64(res.Stats.TimeTotal.Microseconds())/1000)
	fmt.Println()

	// Part 2: COR vs IND organism classification (paper Figure 14).
	table := stats.NewTable("Organism classification quality (COR vs IND)",
		"epsilon", "COR-precision", "COR-recall", "IND-precision", "IND-recall")
	for _, eps := range []float64{0.3, 0.4, 0.5, 0.6} {
		var corP, corR, indP, indR []float64
		for trial := 0; trial < 6; trial++ {
			fam := trial % organisms
			q := probgraph.ExtractQuery(raw.Seeds[fam], 4, rng)
			if q.NumEdges() == 0 {
				continue
			}
			var truth []int
			for gi, f := range raw.Organism {
				if f == fam {
					truth = append(truth, gi)
				}
			}
			for _, cfg := range []struct {
				db  *probgraph.Database
				ps  *[]float64
				rs  *[]float64
				tag string
			}{{corDB, &corP, &corR, "cor"}, {indDB, &indP, &indR, "ind"}} {
				r, err := cfg.db.View().QueryCtx(ctx, q, probgraph.QueryOptions{
					Epsilon: eps, Delta: delta, OptBounds: true, Seed: int64(trial),
				})
				if err != nil {
					log.Fatal(err)
				}
				p, rc := stats.PrecisionRecall(r.Answers, truth)
				*cfg.ps = append(*cfg.ps, p)
				*cfg.rs = append(*cfg.rs, rc)
			}
		}
		table.AddRow(eps, mean(corP), mean(corR), mean(indP), mean(indR))
	}
	table.Render(os.Stdout)
	fmt.Println("\nAs ε grows, recall falls and precision rises for both models; the")
	fmt.Println("correlated model retains organism signal at high thresholds where the")
	fmt.Println("independent approximation starts missing members (paper Figure 14;")
	fmt.Println("run cmd/pgbench -fig 14 for the full sweep at larger scale).")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
