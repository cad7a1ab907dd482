package probgraph_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"probgraph"
)

// TestPublicAPIEndToEnd drives the whole system exclusively through the
// public package the examples use.
func TestPublicAPIEndToEnd(t *testing.T) {
	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: 12, MinVertices: 6, MaxVertices: 8,
		Organisms: 3, Correlated: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := probgraph.DefaultBuildOptions()
	opt.Feature.Beta = 0.2
	opt.Feature.MaxL = 3
	db, err := probgraph.NewDatabase(raw.Graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	q := probgraph.ExtractQuery(raw.Graphs[0].G, 4, rng)
	res, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
		Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TimeTotal <= 0 {
		t.Fatal("missing stats")
	}
	// Every answer index must be valid.
	for _, gi := range res.Answers {
		if gi < 0 || gi >= db.Len() {
			t.Fatalf("answer index %d out of range", gi)
		}
	}
}

func TestPublicAPIPaperFixture(t *testing.T) {
	g001, g002, q, err := probgraph.PaperFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if g001.G.NumEdges() != 3 || g002.G.NumEdges() != 5 || q.NumEdges() != 5 {
		t.Fatal("fixture shapes wrong")
	}
	eng, err := probgraph.NewInferenceEngine(g002)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumEdges() != 5 {
		t.Fatal("engine edge count wrong")
	}
}

func TestPublicAPIDatasetRoundTrip(t *testing.T) {
	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: 4, MinVertices: 5, MaxVertices: 6, Correlated: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := probgraph.SaveDataset(&buf, raw); err != nil {
		t.Fatal(err)
	}
	back, err := probgraph.LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Graphs) != len(raw.Graphs) {
		t.Fatal("round trip lost graphs")
	}
}

func TestPublicAPIIndependentCounterpart(t *testing.T) {
	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: 3, MinVertices: 5, MaxVertices: 6, Correlated: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ind, err := probgraph.IndependentCounterpart(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw.Graphs {
		if raw.Graphs[i].G.NumEdges() != ind.Graphs[i].G.NumEdges() {
			t.Fatal("counterpart changed graph structure")
		}
		// Marginals must match between models.
		ce, err := probgraph.NewInferenceEngine(raw.Graphs[i])
		if err != nil {
			t.Fatal(err)
		}
		ie, err := probgraph.NewInferenceEngine(ind.Graphs[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range raw.Graphs[i].UncertainEdges() {
			a, err := ce.MarginalPresent(e)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ie.MarginalPresent(e)
			if err != nil {
				t.Fatal(err)
			}
			if d := a - b; d > 1e-9 || d < -1e-9 {
				t.Fatalf("graph %d edge %d: marginal %v vs %v", i, e, a, b)
			}
		}
	}
}

func TestPublicAPIRoadGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pg, err := probgraph.GenerateRoadGrid(3, 3, 0.6, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pg.G.NumVertices() != 9 || pg.G.NumEdges() != 12 {
		t.Fatalf("grid shape %d/%d", pg.G.NumVertices(), pg.G.NumEdges())
	}
}

// TestPublicAPIContextAndStream drives the context-first surface through
// the public package: QueryCtx equals Query, a dead context is reported as
// ctx.Err(), and the collected QueryStream re-sorted by graph index equals
// Query's answers and SSP estimates.
func TestPublicAPIContextAndStream(t *testing.T) {
	raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
		NumGraphs: 10, MinVertices: 6, MaxVertices: 8,
		Organisms: 3, Correlated: true, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := probgraph.DefaultBuildOptions()
	opt.Feature.Beta = 0.2
	opt.Feature.MaxL = 3
	db, err := probgraph.NewDatabase(raw.Graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	q := probgraph.ExtractQuery(raw.Graphs[0].G, 4, rng)
	qo := probgraph.QueryOptions{Epsilon: 0.3, Delta: 2, OptBounds: true, Seed: 2, Concurrency: 4}

	want, err := db.View().QueryCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.View().QueryCtx(context.Background(), q, qo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.SSP, want.SSP) {
		t.Fatalf("QueryCtx diverged from Query: %v/%v vs %v/%v",
			got.Answers, got.SSP, want.Answers, want.SSP)
	}

	var matches []probgraph.Match
	for m, err := range db.View().QueryStream(context.Background(), q, qo) {
		if err != nil {
			t.Fatal(err)
		}
		matches = append(matches, m)
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].Graph < matches[j].Graph })
	if len(matches) != len(want.Answers) {
		t.Fatalf("stream yielded %d matches, Query %d answers", len(matches), len(want.Answers))
	}
	for i, m := range matches {
		if m.Graph != want.Answers[i] {
			t.Fatalf("sorted stream[%d] = %d, want %d", i, m.Graph, want.Answers[i])
		}
		if ssp, ok := want.SSP[m.Graph]; ok && m.SSP != ssp {
			t.Fatalf("stream SSP[%d] = %v, want %v", m.Graph, m.SSP, ssp)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.View().QueryCtx(ctx, q, qo); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context: err = %v, want context.Canceled", err)
	}
	if _, err := db.View().QueryTopKCtx(ctx, q, 3, qo); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context topk: err = %v, want context.Canceled", err)
	}
	if _, err := db.View().QueryBatchCtx(ctx, []*probgraph.Graph{q}, qo); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead context batch: err = %v, want context.Canceled", err)
	}
}
