package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
	"probgraph/internal/verify"
)

// extraGraphs generates n insertable graphs from the test distribution.
func extraGraphs(t *testing.T, seed int64, n int) []*prob.PGraph {
	t.Helper()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: n, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
		Labels: 3, Organisms: 2, Correlated: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw.Graphs
}

// workerSweep returns the property-test worker counts {1, 4, GOMAXPROCS},
// deduplicated.
func workerSweep() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// runAtWorkers runs the query at every worker count and asserts the
// results are bitwise-identical, returning the serial one.
func runAtWorkers(t *testing.T, v *View, q *graph.Graph, opt QueryOptions) *Result {
	t.Helper()
	var base *Result
	for _, w := range workerSweep() {
		o := opt
		o.Concurrency = w
		res, err := v.QueryCtx(bg, q, o)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if !reflect.DeepEqual(res.Answers, base.Answers) || !reflect.DeepEqual(res.SSP, base.SSP) {
			t.Fatalf("workers=%d: result diverged from serial\n got: %v %v\nwant: %v %v",
				w, res.Answers, res.SSP, base.Answers, base.SSP)
		}
	}
	return base
}

// TestMutationEquivalenceProperty drives an interleaved add/remove/replace
// /query schedule and checks, after every mutation, that the mutated
// database answers exactly like a fresh NewDatabase built from the
// surviving graphs:
//
//   - with probabilistic pruning bypassed (candidates are then exactly the
//     vocabulary-independent structural set SCq), answers AND SSP
//     estimates must match bitwise through the slot→fresh index mapping —
//     for the SMP verifier this also pins that per-candidate seeding
//     depends only on (Seed, index);
//   - with the full pipeline (PMI pruning + exact verifier) the answer
//     sets must agree — pruning is vocabulary-dependent but sound;
//   - every check runs at workers ∈ {1, 4, GOMAXPROCS}, bitwise-identical;
//   - the same holds across a save/load round-trip of the mutated
//     (tombstoned) database;
//   - after Compact(), slot indices align with the fresh database, so the
//     pruning-bypassed comparison needs no mapping at all.
func TestMutationEquivalenceProperty(t *testing.T) {
	db, raw := smallDatabase(t, 2101, 8, true)
	pool := extraGraphs(t, 2102, 3)
	rng := rand.New(rand.NewSource(2103))

	// current[i] = the PGraph occupying slot i, nil when tombstoned.
	current := make([]*prob.PGraph, len(raw.Graphs))
	copy(current, raw.Graphs)

	schedule := []string{"remove", "add", "remove", "replace", "add", "remove"}

	applyMutation := func(op string, poolNext *int) {
		t.Helper()
		switch op {
		case "add":
			pg := pool[*poolNext%len(pool)]
			*poolNext++
			gi, _, err := db.AddGraph(pg)
			if err != nil {
				t.Fatal(err)
			}
			if gi != len(current) {
				t.Fatalf("AddGraph slot %d, want %d", gi, len(current))
			}
			current = append(current, pg)
		case "remove":
			var live []int
			for gi, pg := range current {
				if pg != nil {
					live = append(live, gi)
				}
			}
			gi := live[rng.Intn(len(live))]
			if _, err := db.RemoveGraph(gi); err != nil {
				t.Fatal(err)
			}
			current[gi] = nil
		case "replace":
			var live []int
			for gi, pg := range current {
				if pg != nil {
					live = append(live, gi)
				}
			}
			gi := live[rng.Intn(len(live))]
			pg := pool[*poolNext%len(pool)]
			*poolNext++
			if _, err := db.ReplaceGraph(gi, pg); err != nil {
				t.Fatal(err)
			}
			current[gi] = pg
		}
	}

	// check compares the mutated database against a fresh build over the
	// survivors, for one query.
	check := func(q *graph.Graph, seed int64) {
		t.Helper()
		var survivors []*prob.PGraph
		remap := map[int]int{} // slot -> fresh index
		for gi, pg := range current {
			if pg != nil {
				remap[gi] = len(survivors)
				survivors = append(survivors, pg)
			}
		}
		opt := DefaultBuildOptions()
		opt.Feature.Beta = 0.2
		opt.Feature.Alpha = 0.05
		opt.Feature.Gamma = 0.05
		opt.Feature.MaxL = 3
		opt.PMI.Seed = 2101
		fresh, err := NewDatabase(survivors, opt)
		if err != nil {
			t.Fatal(err)
		}

		// (1) Pruning bypassed, exact verifier: candidates are the
		// vocabulary-independent SCq and the exact SSP is seed-free, so
		// answers AND SSP estimates must match bitwise through the slot
		// mapping even while slot indices differ from fresh indices.
		bypass := QueryOptions{
			Epsilon: 0.35, Delta: 1, SkipProbPruning: true, Seed: seed,
			Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
		}
		mutated := runAtWorkers(t, db.View(), q, bypass)
		freshRes, err := fresh.View().QueryCtx(bg, q, bypass)
		if err != nil {
			t.Fatal(err)
		}
		mappedAnswers := make([]int, 0, len(mutated.Answers))
		for _, gi := range mutated.Answers {
			mappedAnswers = append(mappedAnswers, remap[gi])
		}
		sort.Ints(mappedAnswers)
		wantAnswers := freshRes.Answers
		if wantAnswers == nil {
			wantAnswers = []int{}
		}
		if !reflect.DeepEqual(mappedAnswers, wantAnswers) {
			t.Fatalf("bypass answers: mutated %v (mapped %v) != fresh %v",
				mutated.Answers, mappedAnswers, freshRes.Answers)
		}
		if len(mutated.SSP) != len(freshRes.SSP) {
			t.Fatalf("bypass SSP sizes: %d != %d", len(mutated.SSP), len(freshRes.SSP))
		}
		for gi, ssp := range mutated.SSP {
			if want := freshRes.SSP[remap[gi]]; want != ssp {
				t.Fatalf("bypass SSP: slot %d (fresh %d): %v != %v", gi, remap[gi], ssp, want)
			}
		}

		// (2) Full pipeline + exact verifier: answer sets agree.
		full := QueryOptions{
			Epsilon: 0.35, Delta: 1, OptBounds: true, Seed: seed,
			Verifier: VerifierExact, Verify: verify.Options{MaxClauses: 22},
		}
		mutatedFull := runAtWorkers(t, db.View(), q, full)
		freshFull, err := fresh.View().QueryCtx(bg, q, full)
		if err != nil {
			t.Fatal(err)
		}
		mappedFull := make([]int, 0, len(mutatedFull.Answers))
		for _, gi := range mutatedFull.Answers {
			mappedFull = append(mappedFull, remap[gi])
		}
		sort.Ints(mappedFull)
		if !sameIntSet(mappedFull, freshFull.Answers) {
			t.Fatalf("full-pipeline answers: mutated %v (mapped %v) != fresh %v",
				mutatedFull.Answers, mappedFull, freshFull.Answers)
		}
	}

	poolNext := 0
	for si, op := range schedule {
		applyMutation(op, &poolNext)
		src := 0
		for gi, pg := range current {
			if pg != nil {
				src = gi
				break
			}
		}
		q := dataset.ExtractQuery(current[src].G, 4, rng)
		check(q, int64(40+si))
	}

	// Save/load round-trip of the tombstoned database: same query, bitwise.
	q := dataset.ExtractQuery(firstLive(current).G, 4, rng)
	fullOpts := QueryOptions{Epsilon: 0.35, Delta: 1, OptBounds: true, Seed: 99}
	before, err := db.View().QueryCtx(bg, q, fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := db.View().SaveAs(&snap, SnapshotText); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadDatabase(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.View().Generation != db.View().Generation || reloaded.View().NumLive() != db.View().NumLive() {
		t.Fatalf("round-trip: gen/live (%d,%d) != (%d,%d)",
			reloaded.View().Generation, reloaded.View().NumLive(), db.View().Generation, db.View().NumLive())
	}
	after, err := reloaded.View().QueryCtx(bg, q, fullOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before.Answers, after.Answers) || !reflect.DeepEqual(before.SSP, after.SSP) {
		t.Fatalf("round-trip changed the answer: %v %v != %v %v",
			after.Answers, after.SSP, before.Answers, before.SSP)
	}

	// Compact: indices align with the fresh database, so the
	// pruning-bypassed comparison is bitwise with no mapping — and the
	// SMP verifier now agrees too, because per-candidate seeds are
	// derived from indices that finally coincide.
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if db.View().Tombstones() != 0 {
		t.Fatalf("tombstones survived Compact: %d", db.View().Tombstones())
	}
	var survivors []*prob.PGraph
	for _, pg := range current {
		if pg != nil {
			survivors = append(survivors, pg)
		}
	}
	fresh, err := NewDatabase(survivors, DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	bypass := QueryOptions{Epsilon: 0.35, Delta: 1, SkipProbPruning: true, Seed: 7,
		Verify: verify.Options{N: 200}}
	a := runAtWorkers(t, db.View(), q, bypass)
	b, err := fresh.View().QueryCtx(bg, q, bypass)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIntSet(a.Answers, b.Answers) || !reflect.DeepEqual(a.SSP, b.SSP) {
		t.Fatalf("post-compact: %v %v != fresh %v %v", a.Answers, a.SSP, b.Answers, b.SSP)
	}
}

func firstLive(current []*prob.PGraph) *prob.PGraph {
	for _, pg := range current {
		if pg != nil {
			return pg
		}
	}
	return nil
}

// TestPinnedViewSurvivesMutations: a view pinned before a burst of
// mutations answers bitwise-identically afterwards — the acceptance
// criterion "a query started before a mutation completes against its
// pinned view with results bitwise-identical to pre-mutation Query".
func TestPinnedViewSurvivesMutations(t *testing.T) {
	db, raw := smallDatabase(t, 2201, 7, true)
	pool := extraGraphs(t, 2202, 2)
	rng := rand.New(rand.NewSource(2203))
	q := dataset.ExtractQuery(raw.Graphs[1].G, 4, rng)
	opt := QueryOptions{Epsilon: 0.35, Delta: 1, OptBounds: true, Seed: 17}

	pinned := db.View()
	want, err := pinned.QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := db.AddGraph(pool[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RemoveGraph(2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ReplaceGraph(1, pool[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	got, err := pinned.QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.SSP, want.SSP) {
		t.Fatalf("pinned view drifted: %v %v != %v %v", got.Answers, got.SSP, want.Answers, want.SSP)
	}
	if pinned.Generation == db.View().Generation {
		t.Fatal("mutations did not advance the generation")
	}
}

// TestRemoveGraphSemantics pins removal behaviour: the removed graph
// leaves every answer set while the survivors' results — indices and SSP
// estimates — stay bitwise-identical (slots are stable, seeding is by
// slot); double removal and out-of-range ids fail; generations advance.
func TestRemoveGraphSemantics(t *testing.T) {
	db, raw := smallDatabase(t, 2301, 8, true)
	rng := rand.New(rand.NewSource(2302))
	q := dataset.ExtractQuery(raw.Graphs[0].G, 4, rng)
	opt := QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true, Seed: 23}

	before, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Answers) == 0 {
		t.Skip("query has no answers; pick a different seed")
	}
	victim := before.Answers[0]

	gen, err := db.RemoveGraph(victim)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation after first mutation = %d, want 2", gen)
	}
	if db.Len() != 8 || db.View().NumLive() != 7 || db.View().Tombstones() != 1 {
		t.Fatalf("shape after remove: len=%d live=%d tombs=%d", db.Len(), db.View().NumLive(), db.View().Tombstones())
	}

	after, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers := make([]int, 0, len(before.Answers)-1)
	for _, gi := range before.Answers {
		if gi != victim {
			wantAnswers = append(wantAnswers, gi)
		}
	}
	if !reflect.DeepEqual(after.Answers, wantAnswers) {
		t.Fatalf("post-remove answers %v, want %v", after.Answers, wantAnswers)
	}
	for gi, ssp := range after.SSP {
		if want, ok := before.SSP[gi]; !ok || want != ssp {
			t.Fatalf("survivor %d: SSP %v, want %v (present %t)", gi, ssp, before.SSP[gi], ok)
		}
	}

	if _, err := db.RemoveGraph(victim); err == nil || !strings.Contains(err.Error(), "already removed") {
		t.Fatalf("double remove: err = %v", err)
	}
	if _, err := db.RemoveGraph(99); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range remove: err = %v", err)
	}
	if _, err := db.ReplaceGraph(victim, raw.Graphs[0]); err == nil {
		t.Fatal("replacing a tombstoned slot succeeded")
	}

	// The degenerate δ ≥ |q| path must skip tombstones too.
	deg, err := db.View().QueryCtx(bg, q, QueryOptions{Epsilon: 0.5, Delta: q.NumEdges(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, gi := range deg.Answers {
		if gi == victim {
			t.Fatal("degenerate path answered a tombstoned slot")
		}
	}
	if len(deg.Answers) != 7 {
		t.Fatalf("degenerate path answered %d graphs, want 7", len(deg.Answers))
	}
}

// TestRemoveGraphReleasesEngine: tombstoning a slot drops its inference
// engine from the successor view — an uncompacted server otherwise retains
// one per graph ever added — while a view pinned before the removal keeps
// its engine and its answers, and compaction and range saves, which only
// carry live slots, go on as before. The same holds on a snapshot-loaded
// database, whose cells start empty.
func TestRemoveGraphReleasesEngine(t *testing.T) {
	built, raw := smallDatabase(t, 2501, 6, true)
	loaded := roundTripAs(t, built, SnapshotBinary)
	for _, row := range []struct {
		name string
		db   *Database
	}{{"built", built}, {"loaded", loaded}} {
		t.Run(row.name, func(t *testing.T) { removeGraphReleasesEngine(t, row.db, raw) })
	}
}

func removeGraphReleasesEngine(t *testing.T, db *Database, raw *dataset.DB) {
	rng := rand.New(rand.NewSource(2502))
	q := dataset.ExtractQuery(raw.Graphs[0].G, 4, rng)
	opt := QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true, Seed: 29}

	gi, _, err := db.AddGraph(extraGraphs(t, 2503, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	pinned := db.View()
	want, err := pinned.QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.RemoveGraph(gi); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RemoveGraph(0); err != nil {
		t.Fatal(err)
	}
	v := db.View()
	if v.engines[gi] != nil || v.engines[0] != nil {
		t.Fatal("tombstoned slots still hold their engines")
	}
	if pinned.engines[gi] == nil || pinned.engines[0] == nil {
		t.Fatal("the removal reached into a pinned view's engines")
	}
	for i := 1; i < gi; i++ {
		if v.engines[i] != pinned.engines[i] {
			t.Fatalf("live slot %d lost or changed its engine", i)
		}
	}
	got, err := pinned.QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.SSP, want.SSP) {
		t.Fatalf("pinned view drifted: %v %v != %v %v", got.Answers, got.SSP, want.Answers, want.SSP)
	}

	// A range over the tombstoned view and the compacted database answer
	// like a fresh database over the survivors (pruning bypassed: the
	// vocabulary differs, the structural set does not).
	fresh, err := NewDatabase(raw.Graphs[1:], db.View().opt)
	if err != nil {
		t.Fatal(err)
	}
	bare := QueryOptions{Epsilon: 0.3, Delta: 1, SkipProbPruning: true, Seed: 29}
	ref, err := fresh.View().QueryCtx(bg, q, bare)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := v.SaveRange(&buf, 0, v.Len(), SnapshotBinary); err != nil {
		t.Fatal(err)
	}
	part, err := LoadDatabase(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if part.View().NumLive() != 5 {
		t.Fatalf("range of the tombstoned view holds %d graphs, want 5", part.View().NumLive())
	}
	if _, err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	cv := db.View()
	for i := range cv.Graphs {
		if cv.engines[i] != pinned.engines[i+1] {
			t.Fatalf("compaction did not carry survivor %d's engine", i)
		}
	}
	res, err := cv.QueryCtx(bg, q, bare)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Answers, ref.Answers) || !reflect.DeepEqual(res.SSP, ref.SSP) {
		t.Fatalf("compacted database: %v %v, fresh build %v %v", res.Answers, res.SSP, ref.Answers, ref.SSP)
	}
}

// TestMutatedSlotReleasesResolvedEngine: once the views pinned before a
// removal or a replacement are dropped, the slot's old engine is garbage —
// also on a snapshot-loaded database, where queries resolve engines into
// cells the successor views share, and with compaction off, as pgserve
// runs.
func TestMutatedSlotReleasesResolvedEngine(t *testing.T) {
	built, raw := smallDatabase(t, 2601, 6, true)
	loaded := roundTripAs(t, built, SnapshotBinary)
	q := dataset.ExtractQuery(raw.Graphs[1].G, 4, rand.New(rand.NewSource(2602)))
	for _, row := range []struct {
		name string
		db   *Database
	}{{"built", built}, {"loaded", loaded}} {
		t.Run(row.name, func(t *testing.T) {
			db := row.db
			pinned := db.View()
			if _, err := pinned.QueryCtx(bg, q, QueryOptions{Epsilon: 0.3, Delta: 1, SkipProbPruning: true, Seed: 7}); err != nil {
				t.Fatal(err)
			}
			freed := make(chan int, 2)
			for _, gi := range []int{1, 3} {
				e, err := pinned.Engine(gi)
				if err != nil {
					t.Fatal(err)
				}
				runtime.SetFinalizer(e, func(*prob.Engine) { freed <- gi })
			}
			pinned = nil
			if _, err := db.RemoveGraph(1); err != nil {
				t.Fatal(err)
			}
			if _, err := db.ReplaceGraph(3, extraGraphs(t, 2603, 1)[0]); err != nil {
				t.Fatal(err)
			}
			deadline := time.After(10 * time.Second)
			for n := 0; n < 2; {
				runtime.GC()
				select {
				case <-freed:
					n++
				case <-time.After(10 * time.Millisecond):
				case <-deadline:
					t.Fatalf("%d of the 2 old engines are still reachable from the database", 2-n)
				}
			}
			runtime.KeepAlive(db)
		})
	}
}

// TestAutoCompactThreshold: once tombstones cross the configured
// fraction, the triggering removal compacts in the same commit — two
// generations in one mutation, tombstones gone, survivors renumbered.
func TestAutoCompactThreshold(t *testing.T) {
	db, _ := smallDatabase(t, 2401, 6, true)
	db.SetCompactThreshold(0.25)

	gen, err := db.RemoveGraph(0)
	if err != nil {
		t.Fatal(err)
	}
	// 1/6 ≤ 0.25: tombstone stays.
	if gen != 2 || db.View().Tombstones() != 1 || db.Len() != 6 {
		t.Fatalf("after first remove: gen=%d tombs=%d len=%d", gen, db.View().Tombstones(), db.Len())
	}
	gen, err = db.RemoveGraph(3)
	if err != nil {
		t.Fatal(err)
	}
	// 2/6 > 0.25: remove + compact in one commit.
	if gen != 4 {
		t.Fatalf("auto-compacting remove returned generation %d, want 4 (remove + compact)", gen)
	}
	if db.View().Tombstones() != 0 || db.Len() != 4 || db.View().NumLive() != 4 {
		t.Fatalf("after auto-compact: tombs=%d len=%d live=%d", db.View().Tombstones(), db.Len(), db.View().NumLive())
	}
	if n := db.View().PMI.NumGraphs(); n != 4 {
		t.Fatalf("PMI has %d columns after compaction, want 4", n)
	}
}

// TestRemoveGraphRefusesBadSlot: removing or replacing a slot that does
// not exist — negative, past the end — or is already removed answers
// ErrNoSuchGraph and commits nothing.
func TestRemoveGraphRefusesBadSlot(t *testing.T) {
	db, raw := smallDatabase(t, 2407, 4, false)
	if _, err := db.RemoveGraph(1); err != nil {
		t.Fatal(err)
	}
	gen := db.View().Generation
	for _, id := range []int{-1, -7, 4, 1} {
		_, rmErr := db.RemoveGraph(id)
		_, replErr := db.ReplaceGraph(id, raw.Graphs[0])
		if !errors.Is(rmErr, ErrNoSuchGraph) || !errors.Is(replErr, ErrNoSuchGraph) {
			t.Fatalf("slot %d: remove error %v, replace error %v; want ErrNoSuchGraph", id, rmErr, replErr)
		}
	}
	if db.View().Generation != gen {
		t.Fatalf("refused mutations moved the generation from %d to %d", gen, db.View().Generation)
	}
}

// TestAutoCompactNaNThresholdNeverCompacts: a threshold that is not > 0
// disables auto-compaction, NaN included — every comparison with NaN is
// false, so a "<= 0 disables" test would let it through to a rule that
// then compacts on every removal.
func TestAutoCompactNaNThresholdNeverCompacts(t *testing.T) {
	db, _ := smallDatabase(t, 2403, 12, false)
	db.SetCompactThreshold(math.NaN())
	for k, id := range []int{3, 0, 7, 11, 5, 1, 9, 2, 10, 4, 6} {
		m, err := db.RemoveGraphInfo(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.Compacted || db.Len() != 12 || m.Tombstoned != k+1 || m.NewGeneration != m.OldGeneration+1 {
			t.Fatalf("removal %d of slot %d: %+v, len %d — a NaN threshold compacted", k+1, id, m, db.Len())
		}
	}
}

// TestAutoCompactOnlyOnRemoval: auto-compaction rides only on a commit
// that tombstones a slot. A threshold armed after the tombstones piled up
// leaves an add and a replace alone; the next removal compacts.
func TestAutoCompactOnlyOnRemoval(t *testing.T) {
	db, raw := smallDatabase(t, 2405, 6, false)
	for _, id := range []int{1, 2, 4} {
		if _, err := db.RemoveGraph(id); err != nil {
			t.Fatal(err)
		}
	}
	db.SetCompactThreshold(0.25)
	add, err := db.AddGraphInfo(raw.Graphs[1])
	if err != nil {
		t.Fatal(err)
	}
	repl, err := db.ReplaceGraphInfo(0, raw.Graphs[2])
	if err != nil {
		t.Fatal(err)
	}
	if add.Compacted || repl.Compacted || db.Len() != 7 || db.View().Tombstones() != 3 {
		t.Fatalf("add %+v, replace %+v, len %d: a commit that tombstoned nothing compacted", add, repl, db.Len())
	}
	rm, err := db.RemoveGraphInfo(6)
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Compacted || rm.CompactedSlots != 4 || db.Len() != 3 || rm.NewGeneration != rm.OldGeneration+2 {
		t.Fatalf("removal past the threshold: %+v, len %d; want compacted to 3 slots in two generations", rm, db.Len())
	}
}

// TestChurnMutationsDuringQueries is the race stress behind the CI
// mutation-during-query step: a background writer hammers
// add/remove/replace (with occasional compaction) while query, top-k,
// batch, and streaming readers run at several worker counts. Run with
// -race; correctness of interleaved results is covered by the
// equivalence property test — here the assertions are only that nothing
// errors, no reader ever observes a half-applied mutation (slot-array
// lengths agree), and every stream's sorted answers match a re-run
// against its own pinned view.
func TestChurnMutationsDuringQueries(t *testing.T) {
	db, raw := smallDatabase(t, 2501, 8, true)
	pool := extraGraphs(t, 2502, 4)
	rng := rand.New(rand.NewSource(2503))
	var qs []*graph.Graph
	for i := 0; i < 4; i++ {
		qs = append(qs, dataset.ExtractQuery(raw.Graphs[i].G, 4, rng))
	}

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		wrng := rand.New(rand.NewSource(2504))
		added := []int{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0, 1:
				if gi, _, err := db.AddGraph(pool[i%len(pool)]); err == nil {
					added = append(added, gi)
				}
			case 2:
				if len(added) > 0 {
					k := wrng.Intn(len(added))
					if _, err := db.RemoveGraph(added[k]); err == nil {
						added = append(added[:k], added[k+1:]...)
					}
				}
			case 3:
				if _, err := db.ReplaceGraph(wrng.Intn(3), pool[i%len(pool)]); err != nil {
					// Slot may be tombstoned by an earlier iteration; only
					// unexpected errors matter and those surface via the
					// equivalence tests.
					_ = err
				}
			}
			if i%16 == 15 {
				if _, err := db.Compact(); err != nil {
					t.Error(err)
					return
				}
				added = added[:0]
			}
		}
	}()

	var readerWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			workers := []int{1, 4, -1}[r%3]
			for i := 0; i < 25; i++ {
				v := db.View()
				if len(v.Graphs) != len(v.engines) || len(v.Graphs) != len(v.Certain) {
					t.Errorf("view %d: ragged slot arrays (%d, %d, %d)",
						v.Generation, len(v.Graphs), len(v.engines), len(v.Certain))
					return
				}
				q := qs[(r+i)%len(qs)]
				opt := QueryOptions{Epsilon: 0.35, Delta: 1, OptBounds: true,
					Seed: int64(i), Concurrency: workers}
				switch i % 3 {
				case 0:
					var got []int
					for m, err := range v.QueryStream(context.Background(), q, opt) {
						if err != nil {
							t.Errorf("reader %d: stream: %v", r, err)
							return
						}
						got = append(got, m.Graph)
					}
					sort.Ints(got)
					res, err := v.QueryCtx(bg, q, opt)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					want := res.Answers
					if want == nil {
						want = []int{}
					}
					if got == nil {
						got = []int{}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("reader %d: stream answers %v != query %v on pinned view", r, got, want)
						return
					}
				case 1:
					if _, err := v.QueryTopKCtx(bg, q, 3, opt); err != nil {
						t.Errorf("reader %d: topk: %v", r, err)
						return
					}
				case 2:
					if _, err := v.QueryBatchCtx(bg, qs[:2], opt); err != nil {
						t.Errorf("reader %d: batch: %v", r, err)
						return
					}
				}
			}
		}(r)
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

// TestMutationsOnZeroFeatureVocabulary: a database whose mining yields no
// features (PMI with zero rows) must still support the whole mutation
// surface — the PMI's column count cannot be derived from a row when
// there is none (regression: RemoveGraph used to panic sizing the mask).
func TestMutationsOnZeroFeatureVocabulary(t *testing.T) {
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 5, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
		Labels: 3, Organisms: 2, Correlated: true, Seed: 2701,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultBuildOptions()
	opt.Feature.Beta = 5.0 // minSupport > |D|: nothing can qualify
	db, err := NewDatabase(raw.Graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := db.View().PMI.NumFeatures(); n != 0 {
		t.Fatalf("setup: want a PMI with zero feature rows, got %d", n)
	}

	if _, err := db.RemoveGraph(1); err != nil {
		t.Fatalf("RemoveGraph on zero-feature database: %v", err)
	}
	if gi, _, err := db.AddGraph(raw.Graphs[0]); err != nil || gi != 5 {
		t.Fatalf("AddGraph on zero-feature database: gi=%d err=%v", gi, err)
	}
	if _, err := db.ReplaceGraph(0, raw.Graphs[2]); err != nil {
		t.Fatalf("ReplaceGraph on zero-feature database: %v", err)
	}
	// Save→load→mutate→compact round trip keeps working too.
	var snap bytes.Buffer
	if err := db.View().SaveAs(&snap, SnapshotText); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadDatabase(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reloaded.RemoveGraph(3); err != nil {
		t.Fatal(err)
	}
	if _, err := reloaded.Compact(); err != nil {
		t.Fatal(err)
	}
	if reloaded.View().NumLive() != 4 || reloaded.View().Tombstones() != 0 {
		t.Fatalf("post-compact shape: live=%d tombs=%d", reloaded.View().NumLive(), reloaded.View().Tombstones())
	}
	rng := rand.New(rand.NewSource(2702))
	q := dataset.ExtractQuery(raw.Graphs[2].G, 4, rng)
	if _, err := reloaded.View().QueryCtx(bg, q, QueryOptions{Epsilon: 0.4, Delta: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
}
