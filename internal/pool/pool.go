// Package pool provides the engine's deterministic bounded worker pool.
// Every parallel phase of the pipeline runs on this one primitive: at
// query time candidate evaluation in core and exact confirmation in the
// simsearch structural filter; at build time the per-graph inference
// engines, the structural filter's count rows, the feature miner's
// levels and the PMI build's columns. So the QueryOptions.Concurrency knob
// has a single meaning everywhere: it bounds goroutines, never changes
// results.
//
// The context-aware entry point ForEachIndexCtx is the cancellation
// backbone of the query engine: cancellation is checked once per work
// item, so a cancelled query stops at item granularity (one candidate
// evaluation, one confirmation) without ever changing the result of items
// that did complete. It is also the one place a failing item is handled:
// the first error stops the hand-out and the loop reports the lowest
// failing index's error, the serial run's at every worker count.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Normalize resolves a Concurrency knob to an actual worker count for n
// independent work items: 0 (and 1) mean serial, a negative value selects
// GOMAXPROCS, and the result never exceeds n (floor 1).
func Normalize(concurrency, n int) int {
	w := concurrency
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEachIndexCtx runs fn(i) for every i in [0, n) on a bounded pool of
// `workers` goroutines (serially when workers <= 1). fn must confine its
// writes to per-index slots; indices are handed out in order by an atomic
// counter, so completion order is unspecified. Cancellation is
// cooperative: ctx is checked before each index is handed out, and once it
// is done no further fn call starts. Indices already dispatched run to
// completion — fn is never interrupted mid-call — and every worker
// goroutine has exited by the time ForEachIndexCtx returns, so a cancelled
// loop leaks nothing.
//
// A failing fn stops the loop the same way: after the first error no
// further index is handed out. The return value is ctx.Err() when the
// context ended, otherwise the error of the lowest failing index, nil when
// all n indices ran without one. Every index below a handed-out one was
// handed out before it and ran to its end, so that error is the one the
// serial run stops at, whichever worker met a failure first.
func ForEachIndexCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				if cerr := ctx.Err(); cerr != nil {
					return cerr
				}
				return err
			}
		}
		return ctx.Err()
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex // guards low, lowErr
		low    = n        // lowest failing index so far
		lowErr error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < low {
						low, lowErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	// A context that died at any point during the loop — even one that
	// raced the final index — reports cancellation: callers treat a
	// non-nil return as "results must be discarded", which is the only
	// sound reading when some tail of fn calls may have been skipped.
	if err := ctx.Err(); err != nil {
		return err
	}
	return lowErr
}
