package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/pool"
	"probgraph/internal/verify"
)

// sameResults asserts two query results are bitwise-identical: same answer
// list, same SSP estimates (exact float equality — the determinism
// guarantee is bitwise, not approximate), same phase counters.
func sameResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Answers) != len(b.Answers) {
		t.Fatalf("%s: answers %v vs %v", label, a.Answers, b.Answers)
	}
	for i := range a.Answers {
		if a.Answers[i] != b.Answers[i] {
			t.Fatalf("%s: answers %v vs %v", label, a.Answers, b.Answers)
		}
	}
	if len(a.SSP) != len(b.SSP) {
		t.Fatalf("%s: SSP maps differ in size: %v vs %v", label, a.SSP, b.SSP)
	}
	for gi, p := range a.SSP {
		if q, ok := b.SSP[gi]; !ok || p != q {
			t.Fatalf("%s: SSP[%d] = %v vs %v", label, gi, p, b.SSP[gi])
		}
	}
	as, bs := a.Stats, b.Stats
	if as.StructConfirmed != bs.StructConfirmed ||
		as.PrunedByUpper != bs.PrunedByUpper ||
		as.AcceptedByLower != bs.AcceptedByLower ||
		as.VerifyCandidates != bs.VerifyCandidates ||
		as.RejectedByBound != bs.RejectedByBound ||
		as.DecidedExactly != bs.DecidedExactly ||
		as.SamplesDrawn != bs.SamplesDrawn ||
		as.Answers != bs.Answers {
		t.Fatalf("%s: stats diverge: %+v vs %+v", label, as, bs)
	}
}

// TestSerialParallelIdenticalResults is the engine's determinism contract:
// for a fixed QueryOptions.Seed, every Concurrency setting must produce
// the same answers, the same SSP estimates, and the same pruning counters,
// across both bound modes and both randomized verifier paths. Run under
// `go test -race` this also exercises the worker pool for data races.
func TestSerialParallelIdenticalResults(t *testing.T) {
	db, _ := smallDatabase(t, 1001, 10, true)
	rng := rand.New(rand.NewSource(41))
	var qs []*graph.Graph
	for i := 0; i < 3; i++ {
		qs = append(qs, dataset.ExtractQuery(db.View().Certain[i*3%len(db.View().Certain)], 4, rng))
	}
	for _, optBounds := range []bool{false, true} {
		for _, vk := range []VerifierKind{VerifierSMP, VerifierExact, VerifierNone} {
			for qi, q := range qs {
				opt := QueryOptions{
					Epsilon: 0.4, Delta: 1, OptBounds: optBounds,
					Verifier: vk, Verify: verify.Options{N: 2000, MaxClauses: 22},
					Seed: int64(100 + qi), Concurrency: 1,
				}
				serial, err := db.View().QueryCtx(bg, q, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 2, 4, 8, -1} {
					po := opt
					po.Concurrency = workers
					par, err := db.View().QueryCtx(bg, q, po)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("optBounds=%v/verifier=%d/q=%d/workers=%d",
						optBounds, vk, qi, workers)
					sameResults(t, label, serial, par)
				}
			}
		}
	}
}

// TestQueryTopKParallelMatchesSerial: the ranked answers and their SSP
// estimates must not depend on the worker count. (The set of candidates
// verified before the early-termination cutoff may differ; the surviving
// top-k cannot.)
func TestQueryTopKParallelMatchesSerial(t *testing.T) {
	db, _ := smallDatabase(t, 1002, 10, true)
	rng := rand.New(rand.NewSource(43))
	q := dataset.ExtractQuery(db.View().Certain[2], 4, rng)
	opt := QueryOptions{
		Delta: 1, OptBounds: true,
		Verifier: VerifierSMP, Verify: verify.Options{N: 1500},
		Seed: 9, Concurrency: 1,
	}
	const k = 3
	serial, err := db.View().QueryTopKCtx(bg, q, k, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		po := opt
		po.Concurrency = workers
		par, err := db.View().QueryTopKCtx(bg, q, k, po)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d items vs serial %d", workers, len(par), len(serial))
		}
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d rank %d: %+v vs serial %+v", workers, i, par[i], serial[i])
			}
		}
	}
}

// TestQueryBatchInnerConcurrency: a batch smaller than the pool spreads
// leftover workers inside each query; results must still match the
// serial per-query runs exactly, also for a subset of the members.
func TestQueryBatchInnerConcurrency(t *testing.T) {
	db, _ := smallDatabase(t, 1003, 8, true)
	rng := rand.New(rand.NewSource(47))
	qs := []*graph.Graph{
		dataset.ExtractQuery(db.View().Certain[0], 4, rng),
		dataset.ExtractQuery(db.View().Certain[1], 4, rng),
	}
	opt := QueryOptions{
		Epsilon: 0.4, Delta: 1, OptBounds: true,
		Verifier: VerifierSMP, Verify: verify.Options{N: 1500},
		Seed: 17, Concurrency: 8,
	}
	batch, err := db.View().QueryBatchCtx(bg, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		qo := opt
		qo.Seed = BatchSeed(opt.Seed, i)
		qo.Concurrency = 1
		seq, err := db.View().QueryCtx(bg, q, qo)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "batch query", batch[i], seq)
	}
	// A member run alone, as a server runs a batch's cache misses, gets
	// every worker and the same result; unlisted members stay nil.
	one, err := db.View().QueryBatchMembersCtx(bg, qs, []int{1}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if one[0] != nil {
		t.Fatal("unlisted member 0 was evaluated")
	}
	sameResults(t, "batch member run alone", one[1], batch[1])
}

// TestQueryBatchRepeatedQueriesHitCache: duplicate queries in one batch
// must produce identical results per seed.
func TestQueryBatchRepeatedQueriesHitCache(t *testing.T) {
	db, _ := smallDatabase(t, 1004, 8, true)
	rng := rand.New(rand.NewSource(53))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	qs := []*graph.Graph{q, q, q, q}
	opt := QueryOptions{
		Epsilon: 0.4, Delta: 1, OptBounds: true,
		Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
		Seed: 23, Concurrency: 4,
	}
	batch, err := db.View().QueryBatchCtx(bg, qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		qo := opt
		qo.Seed = BatchSeed(opt.Seed, i)
		qo.Concurrency = 1
		seq, err := db.View().QueryCtx(bg, qs[i], qo)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "repeated batch query", batch[i], seq)
	}
}

func TestNormalizeWorkers(t *testing.T) {
	cases := []struct {
		concurrency, n, wantMin, wantMax int
	}{
		{0, 10, 1, 1},
		{1, 10, 1, 1},
		{4, 10, 4, 4},
		{4, 2, 2, 2},
		{8, 0, 1, 1},
		{-1, 100, 1, 1 << 20}, // GOMAXPROCS-dependent, just bounded
	}
	for _, c := range cases {
		got := pool.Normalize(c.concurrency, c.n)
		if got < c.wantMin || got > c.wantMax {
			t.Fatalf("pool.Normalize(%d, %d) = %d, want in [%d, %d]",
				c.concurrency, c.n, got, c.wantMin, c.wantMax)
		}
	}
}

func TestCandSeedSpreads(t *testing.T) {
	seen := make(map[int64]bool)
	for gi := 0; gi < 1000; gi++ {
		s := candSeed(7, gi)
		if seen[s] {
			t.Fatalf("candSeed collision at gi=%d", gi)
		}
		seen[s] = true
	}
	if candSeed(7, 0) == candSeed(8, 0) {
		t.Fatal("candSeed ignores the base seed")
	}
}

// TestNewDatabaseIndependentOfGOMAXPROCS builds one generated corpus at
// GOMAXPROCS 1 and 4 and requires byte-identical binary snapshots. The
// snapshot carries every build stage that runs on the pool — mined
// features, structural count rows, the PMI — and the engines feed the PMI,
// so the whole offline build is held to worker-count independence at once.
func TestNewDatabaseIndependentOfGOMAXPROCS(t *testing.T) {
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 40, MinVertices: 10, MaxVertices: 14, Organisms: 5, Correlated: true, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.Feature.Beta, opt.Feature.Alpha, opt.Feature.Gamma, opt.Feature.MaxL = 0.2, 0.1, 0.1, 4
	opt.PMI.Optimize = true
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var snaps [][]byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		db, err := NewDatabase(raw.Graphs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if db.Build().Features == 0 {
			t.Fatal("no features mined")
		}
		var buf bytes.Buffer
		if err := db.View().SaveAs(&buf, SnapshotBinary); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatalf("snapshots differ between GOMAXPROCS 1 and 4 (%d vs %d bytes)", len(snaps[0]), len(snaps[1]))
	}
}
