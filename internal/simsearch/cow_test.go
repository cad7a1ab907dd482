package simsearch

import (
	"math/rand"
	"slices"
	"testing"

	"probgraph/internal/graph"
)

// snapshotAnswers records one index's full filter behaviour over a query
// workload so a later comparison can prove the index did not change.
func snapshotAnswers(ix *Index, qs []queryCase) [][]int {
	out := make([][]int, len(qs))
	for i, qc := range qs {
		out[i] = candidates(ix, qc.q, qc.delta)
	}
	return out
}

type queryCase struct {
	q     *graph.Graph
	delta int
}

// TestCOWChainLeavesPredecessorsUntouched pins the copy-on-write
// contract: every WithGraph / WithTombstones / WithReplaced / Select
// call returns a new Index, and the answers of every earlier link of the
// chain stay bitwise-identical afterwards — a pinned view can keep
// scanning mid-mutation.
func TestCOWChainLeavesPredecessorsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	all := randomDB(rng, 12)
	features := DefaultFeatures(all[:6], 64)

	var qs []queryCase
	for trial := 0; trial < 8; trial++ {
		qs = append(qs, queryCase{
			q:     extractSubquery(rng, all[rng.Intn(6)], 2+rng.Intn(3)),
			delta: rng.Intn(3),
		})
	}

	chain := []*Index{BuildIndex(all[:6], features)}
	baselines := [][][]int{snapshotAnswers(chain[0], qs)}
	grow := func(next *Index) {
		chain = append(chain, next)
		baselines = append(baselines, snapshotAnswers(next, qs))
	}

	for _, g := range all[6:10] {
		grow(chain[len(chain)-1].WithGraph(g))
	}
	grow(chain[len(chain)-1].WithTombstones(2))
	grow(chain[len(chain)-1].WithReplaced(7, all[10]))
	grow(chain[len(chain)-1].WithTombstones(7))
	grow(chain[len(chain)-1].WithGraph(all[11]))
	grow(chain[len(chain)-1].Select([]int{0, 1, 3, 4, 5, 6, 8, 9, 10}))

	// Every link must still answer exactly what it answered when it was
	// the newest index.
	for li, ix := range chain {
		got := snapshotAnswers(ix, qs)
		for i := range qs {
			if !slices.Equal(got[i], baselines[li][i]) {
				t.Fatalf("link %d query %d: answers drifted from %v to %v after later mutations",
					li, i, baselines[li][i], got[i])
			}
		}
	}
}

// TestTombstoneEqualsRebuiltWithout: a tombstoned index answers exactly
// like... not quite an index rebuilt without the graph (ids differ) — it
// answers the rebuilt index's candidates mapped back through the identity
// of the surviving slots, and Select of the survivors then equals the
// rebuilt index slot-for-slot.
func TestTombstoneEqualsRebuiltWithout(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	all := randomDB(rng, 9)
	features := DefaultFeatures(all, 64)
	ix := BuildIndex(all, features)

	removed := []int{1, 4, 8}
	tombed := ix.WithTombstones(removed...)
	if got := tombed.Tombstones(); got != len(removed) {
		t.Fatalf("Tombstones() = %d, want %d", got, len(removed))
	}
	if ix.Tombstones() != 0 {
		t.Fatal("tombstoning mutated the predecessor")
	}

	// Survivors in slot order, plus old-slot → new-slot mapping.
	var survivors []*graph.Graph
	var kept []int
	remap := make(map[int]int)
	for gi, g := range all {
		if slices.Contains(removed, gi) {
			continue
		}
		remap[gi] = len(survivors)
		survivors = append(survivors, g)
		kept = append(kept, gi)
	}
	rebuilt := BuildIndex(survivors, features)
	compacted := tombed.Select(kept)

	for trial := 0; trial < 20; trial++ {
		q := extractSubquery(rng, all[rng.Intn(len(all))], 2+rng.Intn(4))
		delta := rng.Intn(3)

		tc := candidates(tombed, q, delta)
		for _, gi := range tc {
			if slices.Contains(removed, gi) {
				t.Fatalf("tombstoned slot %d emitted as candidate", gi)
			}
		}

		// Mapped through remap, the tombstoned candidates are exactly the
		// rebuilt index's.
		mapped := make([]int, len(tc))
		for i, gi := range tc {
			mapped[i] = remap[gi]
		}
		rc := candidates(rebuilt, q, delta)
		if !slices.Equal(mapped, rc) {
			t.Fatalf("tombstoned candidates %v (mapped %v) != rebuilt %v", tc, mapped, rc)
		}

		// Compacted matches the rebuilt index slot-for-slot.
		if cc := candidates(compacted, q, delta); !slices.Equal(cc, rc) {
			t.Fatalf("compacted candidates %v != rebuilt %v", cc, rc)
		}
	}
	if !slices.Equal(compacted.counts, rebuilt.counts) {
		t.Fatal("compacted count slab differs from the rebuilt index's")
	}
}

// TestWithReplacedEqualsRebuilt: replacing a slot's graph gives the count
// slab and the answers of an index built from scratch over the
// post-replacement database.
func TestWithReplacedEqualsRebuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	all := randomDB(rng, 10)
	repl := randomDB(rng, 3)
	features := DefaultFeatures(all, 64)
	ix := BuildIndex(all, features)
	for i, gi := range []int{0, 5, 9} {
		next := ix.WithReplaced(gi, repl[i])
		final := append(slices.Clone(all[:gi]), append([]*graph.Graph{repl[i]}, all[gi+1:]...)...)
		rebuilt := BuildIndex(final, features)
		if !slices.Equal(next.counts, rebuilt.counts) {
			t.Fatalf("replace %d: count slab differs from the rebuilt index's", gi)
		}
		for trial := 0; trial < 10; trial++ {
			q := extractSubquery(rng, final[rng.Intn(len(final))], 2+rng.Intn(3))
			delta := rng.Intn(3)
			if a, b := candidates(next, q, delta), candidates(rebuilt, q, delta); !slices.Equal(a, b) {
				t.Fatalf("replace %d: %v != rebuilt %v", gi, a, b)
			}
		}
	}
}
