// Benchmarks reproducing the paper's evaluation (§6). There is one
// Benchmark per figure — each runs the corresponding sweep from
// internal/experiments at the "tiny" scale and reports its headline metric
// — plus micro-benchmarks for the load-bearing operations (VF2 matching,
// inference-engine sampling, PMI construction, end-to-end queries).
//
// Regenerate the paper-style series tables with:
//
//	go run ./cmd/pgbench -scale small
package probgraph_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"probgraph"
	"probgraph/internal/experiments"
)

var (
	envOnce sync.Once
	env     *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() {
		env, envErr = experiments.NewEnv(experiments.Config{Scale: "tiny", Seed: 1})
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

func BenchmarkFig09a_Verification(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig9a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig09b_SMPQuality(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig9b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_CandidatesVsEpsilon(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_CandidatesVsDelta(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_FeatureParameters(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13_TotalQueryTime(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14_CORvsIND(b *testing.B) {
	e := benchEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Fig14(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks -------------------------------------------------

// benchDB builds one small indexed database shared by the micro-benches.
var (
	dbOnce sync.Once
	dbVal  *probgraph.Database
	dbRaw  *probgraph.Dataset
	dbErr  error
)

func microDB(b *testing.B) (*probgraph.Database, *probgraph.Dataset) {
	b.Helper()
	dbOnce.Do(func() {
		dbRaw, dbErr = probgraph.GeneratePPI(probgraph.DatasetOptions{
			NumGraphs: 20, MinVertices: 9, MaxVertices: 12,
			Organisms: 4, Correlated: true, Seed: 3,
		})
		if dbErr != nil {
			return
		}
		opt := probgraph.DefaultBuildOptions()
		opt.Feature.MaxL = 4
		opt.Feature.Beta = 0.2
		dbVal, dbErr = probgraph.NewDatabase(dbRaw.Graphs, opt)
	})
	if dbErr != nil {
		b.Fatal(dbErr)
	}
	return dbVal, dbRaw
}

func BenchmarkIndexBuild(b *testing.B) {
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

func BenchmarkQuerySMP(b *testing.B) {
	db, raw := microDB(b)
	rng := rand.New(rand.NewSource(5))
	q := probgraph.ExtractQuery(raw.Graphs[0].G, 5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
			Epsilon: 0.5, Delta: 1, OptBounds: true, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryPruneOnly(b *testing.B) {
	db, raw := microDB(b)
	rng := rand.New(rand.NewSource(6))
	q := probgraph.ExtractQuery(raw.Graphs[1].G, 5, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.View().QueryCtx(context.Background(), q, probgraph.QueryOptions{
			Epsilon: 0.5, Delta: 1, OptBounds: true,
			Verifier: probgraph.VerifierNone, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel engine benchmarks ---------------------------------------

// parallelEnv builds a database sized so that verification dominates query
// time — the regime the concurrent engine targets — plus a small query
// workload. Shared by the workers sweeps below.
var (
	parOnce sync.Once
	parDB   *probgraph.Database
	parQS   []*probgraph.Graph
	parErr  error
)

func parallelEnv(b *testing.B) (*probgraph.Database, []*probgraph.Graph) {
	b.Helper()
	parOnce.Do(func() {
		raw, err := probgraph.GeneratePPI(probgraph.DatasetOptions{
			NumGraphs: 32, MinVertices: 10, MaxVertices: 13,
			Organisms: 4, Correlated: true, Seed: 11,
		})
		if err != nil {
			parErr = err
			return
		}
		opt := probgraph.DefaultBuildOptions()
		opt.Feature.MaxL = 4
		opt.Feature.Beta = 0.2
		parDB, parErr = probgraph.NewDatabase(raw.Graphs, opt)
		if parErr != nil {
			return
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 4; i++ {
			parQS = append(parQS, probgraph.ExtractQuery(raw.Graphs[i].G, 5, rng))
		}
	})
	if parErr != nil {
		b.Fatal(parErr)
	}
	return parDB, parQS
}

func parallelQO(seed int64, workers int) probgraph.QueryOptions {
	return probgraph.QueryOptions{
		Epsilon: 0.3, Delta: 1, OptBounds: true,
		Verify:      probgraph.VerifyOptions{N: 3000},
		Seed:        seed,
		Concurrency: workers,
	}
}

// BenchmarkQueryWorkers sweeps QueryOptions.Concurrency over the same
// workload: compare workers=1 (the serial baseline) against the pooled
// runs for the engine's wall-clock speedup. Answers are identical at every
// setting; only scheduling differs.
func BenchmarkQueryWorkers(b *testing.B) {
	db, qs := parallelEnv(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for qi, q := range qs {
					if _, err := db.View().QueryCtx(context.Background(), q, parallelQO(int64(qi), workers)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkQueryBatchWorkers runs the whole workload through one
// QueryBatch call per iteration, sweeping the pool that is spread across
// the batch's queries.
func BenchmarkQueryBatchWorkers(b *testing.B) {
	db, qs := parallelEnv(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := db.View().QueryBatchCtx(context.Background(), qs, parallelQO(int64(i), workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEngineSampleWorld(b *testing.B) {
	_, raw := microDB(b)
	eng, err := probgraph.NewInferenceEngine(raw.Graphs[0])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.SampleWorld(rng)
	}
}

func BenchmarkEngineProbConjunction(b *testing.B) {
	_, raw := microDB(b)
	pg := raw.Graphs[0]
	eng, err := probgraph.NewInferenceEngine(pg)
	if err != nil {
		b.Fatal(err)
	}
	es := pg.UncertainEdges()
	query := es
	if len(query) > 4 {
		query = query[:4]
	}
	set := pg.NewWorld()
	set.Clear()
	for _, e := range query {
		set.Add(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ProbAllPresent(set); err != nil {
			b.Fatal(err)
		}
	}
}
