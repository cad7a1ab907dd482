package pool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestNormalize(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		concurrency, n, want int
	}{
		{0, 10, 1},
		{1, 10, 1},
		{4, 10, 4},
		{4, 2, 2},
		{4, 0, 1},
		{-1, 1 << 30, maxprocs},
		{-7, 1, 1},
		{16, 16, 16},
	}
	for _, c := range cases {
		if got := Normalize(c.concurrency, c.n); got != c.want {
			t.Errorf("Normalize(%d, %d) = %d, want %d", c.concurrency, c.n, got, c.want)
		}
	}
}

func TestForEachIndexCoversAllOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		ForEachIndexCtx(context.Background(), n, workers, func(i int) error { counts[i].Add(1); return nil })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachIndexEmpty(t *testing.T) {
	called := false
	ForEachIndexCtx(context.Background(), 0, 4, func(i int) error { called = true; return nil })
	if called {
		t.Fatal("fn called for n=0")
	}
}

// TestForEachIndexCtxCompletesUncancelled: with a live context every index
// runs exactly once and the loop returns nil.
func TestForEachIndexCtxCompletesUncancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 500
		counts := make([]atomic.Int32, n)
		err := ForEachIndexCtx(context.Background(), n, workers, func(i int) error { counts[i].Add(1); return nil })
		if err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

// TestForEachIndexCtxPreCancelled: an already-dead context runs nothing at
// all — the first cancellation point is before the first fn call.
func TestForEachIndexCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEachIndexCtx(ctx, 100, workers, func(i int) error { ran.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d fn calls ran on a dead context", workers, ran.Load())
		}
	}
}

// TestForEachIndexCtxCancelMidRun: cancelling while the loop is in flight
// stops it promptly — the visited count stays well below n — returns
// ctx.Err(), and leaves no worker goroutines behind.
func TestForEachIndexCtxCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1 << 20
		var ran atomic.Int32
		err := ForEachIndexCtx(ctx, n, workers, func(i int) error {
			if ran.Add(1) == 50 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// In-flight fn calls (one per worker) may finish after cancel; no
		// new index may start.
		if got := ran.Load(); got > 50+int32(workers) {
			t.Fatalf("workers=%d: %d indices ran after cancel at 50", workers, got)
		}
		waitForGoroutines(t, before)
	}
}

// TestForEachIndexCtxLowestError: whatever set of indices fails, the loop
// reports the lowest failing index's error at every worker count, and the
// serial loop stops right there, after exactly f + 1 calls. A context that
// is done outranks any fn error.
func TestForEachIndexCtxLowestError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 300
	for trial := 0; trial < 50; trial++ {
		fails := make([]bool, n)
		f := n
		for k := 1 + rng.Intn(6); k > 0; k-- {
			i := rng.Intn(n)
			fails[i] = true
			f = min(f, i)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			var calls atomic.Int32
			err := ForEachIndexCtx(context.Background(), n, workers, func(i int) error {
				calls.Add(1)
				if fails[i] {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			if want := fmt.Sprintf("item %d", f); err == nil || err.Error() != want {
				t.Fatalf("trial %d workers=%d: err = %v, want %q", trial, workers, err, want)
			}
			if workers == 1 && calls.Load() != int32(f+1) {
				t.Fatalf("trial %d: serial loop ran %d calls, want %d", trial, calls.Load(), f+1)
			}
		}
	}

	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForEachIndexCtx(ctx, 100, workers, func(i int) error {
			if i == 3 {
				cancel()
				return errors.New("item 3")
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled over the item's error", workers, err)
		}
	}
}

// waitForGoroutines polls until the goroutine count returns to (at most)
// the recorded baseline, failing after a generous deadline. Cheap leak
// check: ForEachIndexCtx promises every worker has exited on return.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline %d (now %d)",
				baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
