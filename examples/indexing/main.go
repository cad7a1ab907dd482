// Command indexing inspects the PMI index: it builds a database, dumps the
// feature matrix with its SIP bounds (the paper's Figure 4 view), compares
// the OPT-SIPBound and SIPBound index variants with the exact cells the
// library builds by default, and shows how pruning power responds — the
// paper's §4 story in one program.
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
	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: 16, Organisms: 2, MinVertices: 7, MaxVertices: 10,
		Correlated: true, Seed: 17,
	})
	if err != nil {
		log.Fatal(err)
	}

	build := func(exact, optimize bool) *probgraph.Database {
		opt := probgraph.DefaultBuildOptions()
		opt.Feature.Beta = 0.25
		opt.Feature.MaxL = 4
		opt.PMI.Exact = exact
		opt.PMI.Optimize = optimize
		db, err := probgraph.NewDatabase(raw.Graphs, opt)
		if err != nil {
			log.Fatal(err)
		}
		return db
	}
	optDB := build(false, true)
	plainDB := build(false, false)
	exactDB := build(true, true)

	fmt.Printf("OPT-SIPBound index: %d features, %d bytes, built in %v (mining %v + PMI %v)\n",
		optDB.Build().Features, optDB.Build().IndexSizeBytes,
		optDB.Build().FeatureTime+optDB.Build().PMITime, optDB.Build().FeatureTime, optDB.Build().PMITime)
	fmt.Printf("SIPBound index:     %d features, %d bytes\n", plainDB.Build().Features, plainDB.Build().IndexSizeBytes)
	fmt.Printf("Exact-cell index:   %d features, %d bytes, PMI %v\n\n", exactDB.Build().Features, exactDB.Build().IndexSizeBytes, exactDB.Build().PMITime)

	// The PMI matrix view (paper Figure 4) for the first few features and
	// graphs: ⟨LowerB, UpperB⟩ for contained features, ⟨0⟩ otherwise.
	table := stats.NewTable("PMI matrix excerpt (rows = features, cols = graphs 0-5)",
		"feature", "g0", "g1", "g2", "g3", "g4", "g5")
	optPMI := optDB.View().PMI
	maxRows := optPMI.NumFeatures()
	if maxRows > 8 {
		maxRows = 8
	}
	for fi := 0; fi < maxRows; fi++ {
		cells := []interface{}{fmt.Sprintf("f%d(%de)", fi, optPMI.Features[fi].NumEdges())}
		for gi := 0; gi < 6 && gi < len(raw.Graphs); gi++ {
			e := optPMI.At(fi, gi)
			if !e.Contained {
				cells = append(cells, "<0>")
			} else {
				cells = append(cells, fmt.Sprintf("<%.2f,%.2f>", e.Lower, e.Upper))
			}
		}
		table.AddRow(cells...)
	}
	table.Render(os.Stdout)
	fmt.Println()

	// Bound tightness: average width of contained entries per variant.
	width := func(db *probgraph.Database) (float64, int) {
		total, n := 0.0, 0
		idx := db.View().PMI
		for fi := 0; fi < idx.NumFeatures(); fi++ {
			for gi := 0; gi < idx.NumGraphs(); gi++ {
				if e := idx.At(fi, gi); e.Contained {
					total += e.Upper - e.Lower
					n++
				}
			}
		}
		if n == 0 {
			return 0, 0
		}
		return total / float64(n), n
	}
	ow, on := width(optDB)
	pw, _ := width(plainDB)
	ew, _ := width(exactDB)
	fmt.Printf("Average bound width over %d contained entries: OPT %.4f vs plain %.4f vs exact %.4f\n", on, ow, pw, ew)

	// Pruning-power comparison over a few queries: fraction of structural
	// candidates resolved without verification.
	rng := rand.New(rand.NewSource(23))
	resolve := func(db *probgraph.Database, seed int64) float64 {
		resolved, total := 0, 0
		for trial := 0; trial < 5; trial++ {
			q := probgraph.ExtractQuery(raw.Graphs[trial%len(raw.Graphs)].G, 4, rng)
			res, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
				Epsilon: 0.4, Delta: 1, OptBounds: true,
				Verifier: probgraph.VerifierNone, Seed: seed + int64(trial),
			})
			if err != nil {
				log.Fatal(err)
			}
			total += res.Stats.StructConfirmed
			resolved += res.Stats.PrunedByUpper + res.Stats.AcceptedByLower
		}
		if total == 0 {
			return 0
		}
		return float64(resolved) / float64(total)
	}
	rng = rand.New(rand.NewSource(23))
	fOpt := resolve(optDB, 1)
	rng = rand.New(rand.NewSource(23))
	fPlain := resolve(plainDB, 1)
	rng = rand.New(rand.NewSource(23))
	fExact := resolve(exactDB, 1)
	fmt.Printf("Structural candidates resolved by PMI pruning alone: OPT %.0f%% vs plain %.0f%% vs exact %.0f%%\n",
		100*fOpt, 100*fPlain, 100*fExact)
}
