// Command roadnet demonstrates the paper's road-network motivation:
// congestion on one road segment correlates with congestion on adjacent
// segments, and route-pattern queries must account for that. It builds a
// database of congestion-correlated road grids (edge present = segment
// flowing), then asks which districts contain a reliable instance of a
// given route pattern with probability ≥ ε.
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
	rng := rand.New(rand.NewSource(11))

	// A database of district grids with varying congestion levels: higher
	// meanProb = segments more likely to flow.
	var graphs []*probgraph.PGraph
	var names []string
	for i, cfg := range []struct {
		n, m  int
		flow  float64
		boost float64
	}{
		{3, 4, 0.85, 0.4}, {3, 4, 0.7, 0.6}, {4, 4, 0.55, 0.8},
		{3, 5, 0.8, 0.5}, {4, 4, 0.75, 0.4}, {3, 4, 0.45, 1.0},
		{4, 5, 0.65, 0.7}, {4, 4, 0.9, 0.3},
	} {
		pg, err := probgraph.GenerateRoadGrid(cfg.n, cfg.m, cfg.flow, cfg.boost, rng)
		if err != nil {
			log.Fatal(err)
		}
		graphs = append(graphs, pg)
		names = append(names, fmt.Sprintf("district-%d(%dx%d,flow=%.2f)", i, cfg.n, cfg.m, cfg.flow))
	}

	opt := probgraph.DefaultBuildOptions()
	opt.Feature.Beta = 0.3
	opt.Feature.MaxL = 4
	db, err := probgraph.NewDatabase(graphs, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Indexed %d districts, %d route features mined\n\n", len(graphs), db.Build().Features)

	// Route pattern: an L-shaped connection through the center zone —
	// suburb → center → center → suburb.
	qb := probgraph.NewGraphBuilder("route-L")
	s1 := qb.AddVertex("suburb")
	c1 := qb.AddVertex("center")
	c2 := qb.AddVertex("center")
	s2 := qb.AddVertex("suburb")
	qb.MustAddEdge(s1, c1, "road")
	qb.MustAddEdge(c1, c2, "road")
	qb.MustAddEdge(c2, s2, "road")
	q := qb.Build()
	fmt.Println("Route pattern:", q)

	table := stats.NewTable("Districts with a reliable route instance",
		"epsilon", "delta", "matching districts")
	for _, eps := range []float64{0.3, 0.5, 0.7, 0.9} {
		for _, delta := range []int{0, 1} {
			res, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
				Epsilon: eps, Delta: delta, OptBounds: true, Seed: 5,
			})
			if err != nil {
				log.Fatal(err)
			}
			list := ""
			for i, gi := range res.Answers {
				if i > 0 {
					list += ", "
				}
				list += names[gi]
			}
			if list == "" {
				list = "(none)"
			}
			table.AddRow(eps, delta, list)
		}
	}
	table.Render(os.Stdout)
	fmt.Println("\nHigher ε demands more reliable routes; δ=1 tolerates one broken segment.")
}
