package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/verify"
)

// slowQueryEnv builds a database and query on which a full QueryCtx run is
// slow by construction, so that a cancel lands mid-scan: probabilistic
// pruning is bypassed, ε lies below every candidate's bound V so the ladder
// rejects none unsampled, and several candidates carry a DNF past
// exactCrossover, each paying the full 300 000 samples. The helper asserts
// both, so a change to the ladder or the generator cannot quietly make the
// cancellation tests vacuous.
func slowQueryEnv(t *testing.T) (*Database, *graph.Graph, QueryOptions) {
	t.Helper()
	db, _ := smallDatabase(t, 2001, 16, true)
	rng := rand.New(rand.NewSource(61))
	q := dataset.ExtractQuery(db.View().Certain[0], 5, rng)
	opt := QueryOptions{
		Epsilon: 0.01, Delta: 2, SkipProbPruning: true,
		Verifier: VerifierSMP, Verify: verify.Options{N: 300000},
		Seed: 5,
	}
	v := db.View()
	scq, _ := v.Struct.SCq(q, opt.Delta, 1)
	sampled := 0
	for _, gi := range scq {
		d, err := v.prepareDNF(q, gi, opt.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if d.Bound() < opt.Epsilon {
			t.Fatalf("graph %d: bound %v below ε %v — rejected without sampling", gi, d.Bound(), opt.Epsilon)
		}
		if d.Clauses() > exactCrossover {
			sampled++
		}
	}
	if sampled < 4 {
		t.Fatalf("only %d of %d candidates reach the sampler; the fixture is not slow", sampled, len(scq))
	}
	return db, q, opt
}

// checkGoroutineBaseline polls until the goroutine count returns to (at
// most) baseline plus a small slack for runtime housekeeping.
func checkGoroutineBaseline(t *testing.T, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutine leak: baseline %d, now %d", label, baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueryCtxPreCancelled: every Ctx entry point returns ctx.Err()
// immediately on an already-dead context, before any pipeline work.
func TestQueryCtxPreCancelled(t *testing.T) {
	db, _ := smallDatabase(t, 2002, 6, true)
	rng := rand.New(rand.NewSource(67))
	q := dataset.ExtractQuery(db.View().Certain[0], 4, rng)
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if res, err := db.View().QueryCtx(ctx, q, opt); !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("QueryCtx: (%v, %v), want (nil, Canceled)", res, err)
	}
	if items, err := db.View().QueryTopKCtx(ctx, q, 3, opt); !errors.Is(err, context.Canceled) || items != nil {
		t.Fatalf("QueryTopKCtx: (%v, %v), want (nil, Canceled)", items, err)
	}
	if rs, err := db.View().QueryBatchCtx(ctx, []*graph.Graph{q, q}, opt); !errors.Is(err, context.Canceled) || rs != nil {
		t.Fatalf("QueryBatchCtx: (%v, %v), want (nil, Canceled)", rs, err)
	}
}

// TestQueryCtxCancelMidScan cancels a running query at varying worker
// counts and asserts the three promises of the contract: the call returns
// ctx.Err() (never a partial Result), it returns promptly — bounded by one
// in-flight candidate per worker, not by the remaining scan — and the
// worker-pool goroutines are gone afterwards.
func TestQueryCtxCancelMidScan(t *testing.T) {
	db, q, opt := slowQueryEnv(t)

	// Control: the uncancelled query must be slow enough that a mid-scan
	// cancel actually lands mid-scan.
	start := time.Now()
	want, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 50*time.Millisecond {
		t.Skipf("full query took only %v; too fast to cancel mid-scan reliably", full)
	}
	if want.Stats.VerifyCandidates == 0 {
		t.Fatal("workload has no verification candidates; cancellation test is vacuous")
	}

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		baseline := runtime.NumGoroutine()
		po := opt
		po.Concurrency = workers
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(full / 8)
			cancel()
		}()
		start := time.Now()
		res, err := db.View().QueryCtx(ctx, q, po)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res != nil {
			t.Fatalf("workers=%d: cancelled query returned a partial result", workers)
		}
		// Prompt: far sooner than finishing the scan would take. The slack
		// covers the in-flight candidate evaluations that run to completion.
		if elapsed > full {
			t.Fatalf("workers=%d: cancelled query returned after %v (full scan %v) — not prompt",
				workers, elapsed, full)
		}
		checkGoroutineBaseline(t, "QueryCtx", baseline)
	}
}

// TestQueryTopKCtxCancelMidScan: same contract for the ranked form, whose
// windows of verification run on the shared pool between rule checks.
func TestQueryTopKCtxCancelMidScan(t *testing.T) {
	db, q, opt := slowQueryEnv(t)
	start := time.Now()
	if _, err := db.View().QueryTopKCtx(bg, q, 3, opt); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)
	if full < 50*time.Millisecond {
		t.Skipf("full top-k took only %v; too fast to cancel mid-scan reliably", full)
	}
	for _, workers := range []int{1, 4} {
		baseline := runtime.NumGoroutine()
		po := opt
		po.Concurrency = workers
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(full / 8)
			cancel()
		}()
		items, err := db.View().QueryTopKCtx(ctx, q, 3, po)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if items != nil {
			t.Fatalf("workers=%d: cancelled top-k returned a partial ranking", workers)
		}
		checkGoroutineBaseline(t, "QueryTopKCtx", baseline)
	}
}

// TestQueryBatchCtxCancelStopsWholeBatch: the shared context ends every
// member; no partial batch results come back.
func TestQueryBatchCtxCancelStopsWholeBatch(t *testing.T) {
	db, q, opt := slowQueryEnv(t)
	qs := []*graph.Graph{q, q, q, q}
	start := time.Now()
	if _, err := db.View().QueryBatchCtx(bg, qs[:1], opt); err != nil {
		t.Fatal(err)
	}
	perQuery := time.Since(start)
	if perQuery < 50*time.Millisecond {
		t.Skipf("member query took only %v; too fast to cancel mid-batch reliably", perQuery)
	}
	baseline := runtime.NumGoroutine()
	po := opt
	po.Concurrency = 2
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(perQuery / 4)
		cancel()
	}()
	rs, err := db.View().QueryBatchCtx(ctx, qs, po)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rs != nil {
		t.Fatal("cancelled batch returned partial results")
	}
	checkGoroutineBaseline(t, "QueryBatchCtx", baseline)
}

// TestQueryCtxDeadline: an expired deadline reports DeadlineExceeded, the
// same way a manual cancel reports Canceled.
func TestQueryCtxDeadline(t *testing.T) {
	db, q, opt := slowQueryEnv(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	if _, err := db.View().QueryCtx(ctx, q, opt); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestQueryCtxUncancelledIdentical: threading a live context changes
// nothing — QueryCtx(Background) is bitwise Query.
func TestQueryCtxUncancelledIdentical(t *testing.T) {
	db, _ := smallDatabase(t, 2003, 8, true)
	rng := rand.New(rand.NewSource(71))
	q := dataset.ExtractQuery(db.View().Certain[1], 4, rng)
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 13, Concurrency: 4}
	want, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.View().QueryCtx(context.Background(), q, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "ctx vs plain", want, got)
}
