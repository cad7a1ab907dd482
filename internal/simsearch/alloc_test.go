package simsearch

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestScanSteadyStateAllocs pins the row scan's allocation budget: it
// reads the count slab in place and keeps no accumulator, so the only
// allocation is the candidate list it returns — a scan returning no
// candidates makes none at all, and a productive scan pays only the
// append growth of its result.
func TestScanSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the pin runs in the plain test pass")
	}
	rng := rand.New(rand.NewSource(9))
	dbc := randomDB(rng, 40)
	ix := BuildIndex(dbc, DefaultFeatures(dbc, 64)).WithTombstones(7)
	needs, budget := ix.queryProfile(extractSubquery(rng, dbc[0], 4), 1)
	if len(needs) == 0 {
		t.Fatal("query embeds no counting feature; the pin is vacuous")
	}

	avg := testing.AllocsPerRun(100, func() {
		_ = ix.scanRows(needs, -1) // unattainable budget: no candidates
	})
	if avg != 0 {
		t.Errorf("empty scan allocates: %.2f allocs, want 0", avg)
	}

	kept := len(ix.scanRows(needs, budget))
	if kept == 0 {
		t.Fatal("productive scan kept nothing; the pin is vacuous")
	}
	avg = testing.AllocsPerRun(100, func() {
		_ = ix.scanRows(needs, budget)
	})
	// Appends from nil: capacities 1, 2, 4, … up to the first that holds
	// the result.
	if limit := float64(bits.Len(uint(kept)) + 1); avg > limit {
		t.Errorf("scan keeping %d graphs allocates %.2f times, want <= %.0f (its result slice only)", kept, avg, limit)
	}
}
