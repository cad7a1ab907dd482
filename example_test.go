package probgraph_test

import (
	"context"
	"fmt"

	"probgraph"
)

// ExampleNewDatabase indexes the paper's Figure 1 database and runs the
// running-example threshold query.
func ExampleNewDatabase() {
	g001, g002, q, err := probgraph.PaperFigure1()
	if err != nil {
		panic(err)
	}
	opt := probgraph.DefaultBuildOptions()
	opt.Feature.Beta = 0.4
	opt.Feature.MaxL = 3
	db, err := probgraph.NewDatabase([]*probgraph.PGraph{g001, g002}, opt)
	if err != nil {
		panic(err)
	}
	res, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
		Epsilon:  0.35,
		Delta:    1,
		Verifier: probgraph.VerifierExact,
	})
	if err != nil {
		panic(err)
	}
	for _, gi := range res.Answers {
		fmt.Println(db.View().Graphs[gi].G.Name())
	}
	// Output: 002
}

// ExampleNewPGraph builds a correlated probabilistic graph by hand: a
// triangle whose three neighbor edges share one joint probability table.
func ExampleNewPGraph() {
	b := probgraph.NewGraphBuilder("triangle")
	u := b.AddVertex("A")
	v := b.AddVertex("B")
	w := b.AddVertex("C")
	e1 := b.MustAddEdge(u, v, "")
	e2 := b.MustAddEdge(v, w, "")
	e3 := b.MustAddEdge(u, w, "")

	// Row m assigns edge i present iff bit i of m is set.
	jpt := probgraph.JPT{
		Edges: []probgraph.EdgeID{e1, e2, e3},
		P:     []float64{0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.2, 0.2},
	}
	pg, err := probgraph.NewPGraph(b.Build(), []probgraph.JPT{jpt})
	if err != nil {
		panic(err)
	}
	eng, err := probgraph.NewInferenceEngine(pg)
	if err != nil {
		panic(err)
	}
	p, err := eng.MarginalPresent(e1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Pr(e1) = %.1f\n", p)
	// Output: Pr(e1) = 0.5
}

// ExampleDatabaseView_QueryTopKCtx ranks graphs by similarity probability.
func ExampleDatabaseView_QueryTopKCtx() {
	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: 8, MinVertices: 6, MaxVertices: 8, Organisms: 2,
		MeanProb: 0.7, Correlated: true, Seed: 42,
	})
	if err != nil {
		panic(err)
	}
	opt := probgraph.DefaultBuildOptions()
	opt.Feature.Beta = 0.25
	opt.Feature.MaxL = 3
	db, err := probgraph.NewDatabase(raw.Graphs, opt)
	if err != nil {
		panic(err)
	}
	// The first graph's certain structure, as a query against the database.
	view := db.View()
	q := view.Certain[0]
	top, err := view.QueryTopKCtx(context.Background(), q, 1, probgraph.QueryOptions{
		Delta: 1, Verifier: probgraph.VerifierSMP,
		Verify: probgraph.VerifyOptions{N: 2000}, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	if len(top) > 0 && top[0].Graph == 0 {
		fmt.Println("best match is the query's own graph")
	}
	// Output: best match is the query's own graph
}
