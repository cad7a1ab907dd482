package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
)

// partitionAll splits db into the given number of contiguous range
// partitions.
func partitionAll(t *testing.T, db *Database, shards int) []*Database {
	t.Helper()
	ranges, err := PartitionRanges(db.Len(), shards)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*Database, len(ranges))
	for i, r := range ranges {
		parts[i], err = db.Partition(r[0], r[1])
		if err != nil {
			t.Fatalf("partition [%d,%d): %v", r[0], r[1], err)
		}
	}
	return parts
}

// mergedAnswers runs q on every partition and merges the translated
// answers/SSPs the way the coordinator does: global ids sorted ascending,
// SSP maps unioned.
func mergedAnswers(t *testing.T, parts []*Database, q *graph.Graph, opt QueryOptions) ([]int, map[int]float64) {
	t.Helper()
	var answers []int
	ssp := make(map[int]float64)
	for _, p := range parts {
		v := p.View()
		res, err := v.QueryCtx(context.Background(), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, li := range res.Answers {
			answers = append(answers, v.GID(li))
		}
		for li, pr := range res.SSP {
			ssp[v.GID(li)] = pr
		}
	}
	sort.Ints(answers)
	return answers, ssp
}

// TestRangePartitionBitwise is the core determinism property: a query
// evaluated per-partition and merged answers bitwise what the full
// database answers — same answer ids, same SSP estimates — across seeds,
// worker counts, and shard counts.
func TestRangePartitionBitwise(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		db, _ := smallDatabase(t, seed, 12, true)
		rng := rand.New(rand.NewSource(seed))
		for _, shards := range []int{2, 3} {
			parts := partitionAll(t, db, shards)
			for qi := 0; qi < 3; qi++ {
				q := dataset.ExtractQuery(db.View().Graphs[qi%db.Len()].G, 4, rng)
				for _, workers := range []int{1, 4} {
					opt := QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true,
						Seed: seed + int64(qi), Concurrency: workers}
					full, err := db.View().QueryCtx(bg, q, opt)
					if err != nil {
						t.Fatal(err)
					}
					want := append([]int(nil), full.Answers...)
					sort.Ints(want)
					got, gotSSP := mergedAnswers(t, parts, q, opt)
					if len(got) != len(want) {
						t.Fatalf("seed=%d shards=%d q=%d workers=%d: merged %v != full %v",
							seed, shards, qi, workers, got, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("seed=%d shards=%d q=%d workers=%d: merged %v != full %v",
								seed, shards, qi, workers, got, want)
						}
					}
					for gi, pr := range full.SSP {
						if gotSSP[gi] != pr {
							t.Fatalf("seed=%d shards=%d q=%d workers=%d: SSP[%d] = %v, full %v",
								seed, shards, qi, workers, gi, gotSSP[gi], pr)
						}
					}
				}
			}
		}
	}
}

// TestRangePartitionWithTombstones checks that partitioning a database
// holding tombstoned slots keeps global ids stable and answers bitwise.
func TestRangePartitionWithTombstones(t *testing.T) {
	db, _ := smallDatabase(t, 7, 12, true)
	for _, id := range []int{2, 5, 9} {
		if _, err := db.RemoveGraph(id); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	q := dataset.ExtractQuery(db.View().Graphs[1].G, 4, rng)
	opt := QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true, Seed: 7}
	full, err := db.View().QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]int(nil), full.Answers...)
	sort.Ints(want)
	parts := partitionAll(t, db, 3)
	got, gotSSP := mergedAnswers(t, parts, q, opt)
	if len(got) != len(want) {
		t.Fatalf("merged %v != full %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v != full %v", got, want)
		}
		if gotSSP[want[i]] != full.SSP[want[i]] {
			t.Fatalf("SSP[%d] = %v, full %v", want[i], gotSSP[want[i]], full.SSP[want[i]])
		}
	}
}

// TestRangeSnapshotRoundTrip saves a partition in both snapshot formats
// and checks the reloaded copy keeps the global-id mapping and answers.
func TestRangeSnapshotRoundTrip(t *testing.T) {
	db, _ := smallDatabase(t, 5, 10, true)
	rng := rand.New(rand.NewSource(5))
	q := dataset.ExtractQuery(db.View().Graphs[0].G, 4, rng)
	opt := QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true, Seed: 5}
	for _, format := range []SnapshotFormat{SnapshotText, SnapshotBinary} {
		rv, err := db.View().Range(4, 10)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rv.SaveAs(&buf, format); err != nil {
			t.Fatal(err)
		}
		part, err := LoadDatabase(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("format %v: %v", format, err)
		}
		pv := part.View()
		if !pv.Partitioned() {
			t.Fatalf("format %v: reloaded partition lost its gids", format)
		}
		for li := 0; li < pv.Len(); li++ {
			if want := 4 + li; pv.GID(li) != want {
				t.Fatalf("format %v: GID(%d) = %d, want %d", format, li, pv.GID(li), want)
			}
		}
		orig, err := db.Partition(4, 10)
		if err != nil {
			t.Fatal(err)
		}
		a1, s1 := mergedAnswers(t, []*Database{orig}, q, opt)
		a2, s2 := mergedAnswers(t, []*Database{part}, q, opt)
		if len(a1) != len(a2) {
			t.Fatalf("format %v: reloaded answers %v != %v", format, a2, a1)
		}
		for i := range a1 {
			if a1[i] != a2[i] || s1[a1[i]] != s2[a1[i]] {
				t.Fatalf("format %v: reloaded answers %v/%v != %v/%v", format, a2, s2, a1, s1)
			}
		}
	}
}

// TestPartitionReadOnly checks every mutation path rejects partitions
// with ErrPartitioned.
func TestPartitionReadOnly(t *testing.T) {
	db, raw := smallDatabase(t, 3, 8, false)
	part, err := db.Partition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := part.AddGraph(raw.Graphs[0]); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("AddGraph: %v, want ErrPartitioned", err)
	}
	if _, err := part.RemoveGraph(0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("RemoveGraph: %v, want ErrPartitioned", err)
	}
	if _, err := part.ReplaceGraph(0, raw.Graphs[0]); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("ReplaceGraph: %v, want ErrPartitioned", err)
	}
	if _, err := part.Compact(); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Compact: %v, want ErrPartitioned", err)
	}
	if _, err := part.View().Range(0, 2); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("Range of a partition: %v, want ErrPartitioned", err)
	}
	// The partition keeps its source's generation so a coordinator can
	// detect a half-rolled-out fleet.
	if got, want := part.View().Generation, db.View().Generation; got != want {
		t.Fatalf("partition generation %d, source %d", got, want)
	}
}

// TestPartitionRanges checks the contiguous split: full cover, no
// overlap, remainder spread over the earliest ranges, and rejection of
// bad shapes.
func TestPartitionRanges(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{10, 3}, {9, 3}, {7, 1}, {5, 5}} {
		ranges, err := PartitionRanges(tc.n, tc.shards)
		if err != nil {
			t.Fatalf("PartitionRanges(%d,%d): %v", tc.n, tc.shards, err)
		}
		if len(ranges) != tc.shards {
			t.Fatalf("PartitionRanges(%d,%d): %d ranges", tc.n, tc.shards, len(ranges))
		}
		next := 0
		for _, r := range ranges {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("PartitionRanges(%d,%d): bad range %v (next=%d)", tc.n, tc.shards, r, next)
			}
			next = r[1]
		}
		if next != tc.n {
			t.Fatalf("PartitionRanges(%d,%d): covers [0,%d), want [0,%d)", tc.n, tc.shards, next, tc.n)
		}
	}
	for _, tc := range []struct{ n, shards int }{{0, 1}, {5, 0}, {5, 6}, {5, -1}} {
		if _, err := PartitionRanges(tc.n, tc.shards); err == nil {
			t.Fatalf("PartitionRanges(%d,%d): want error", tc.n, tc.shards)
		}
	}
}

// TestTopKWalkDistributedReplay replays the coordinator's distributed
// top-k at the library level: every range partition walks its own
// schedule (QueryTopKWalk), the walks merge by (Upper descending, global id
// ascending), and the rule replays over the merged list with every value in
// hand (ReplayWalks). At 1–3 ranges, k = 1…6 and two worker counts the result must be
// bitwise the full database's QueryTopKCtx without ever reaching a
// partition's stop entry. The ladder databases hold candidates with
// certain-edge clauses (SSP = Upper = 1), so the full walk stops on a tie at
// the k-th value — the case the partitions' walks must cover too.
func TestTopKWalkDistributedReplay(t *testing.T) {
	ties, certain := 0, 0
	for _, seed := range []int64{3, 9} {
		small, _ := smallDatabase(t, seed, 12, true)
		for _, db := range []*Database{small, ladderDatabase(t, seed, 14)} {
			v := db.View()
			for qi, q := range ladderQueries(v, seed, 3) {
				opt := QueryOptions{Delta: 1 + qi%2, OptBounds: true, Seed: seed + int64(qi)}
				for shards := 1; shards <= 3; shards++ {
					var parts []*View
					for _, p := range partitionAll(t, db, shards) {
						parts = append(parts, p.View())
					}
					for k := 1; k <= 6; k++ {
						for _, workers := range []int{1, 4} {
							wopt := opt
							wopt.Concurrency = workers
							full, err := v.QueryTopKWalk(bg, q, k, wopt)
							if err != nil {
								t.Fatal(err)
							}
							if top := mergedWalkTopK(t, parts, q, k, wopt); !slices.Equal(top, full.Top) {
								t.Fatalf("seed %d q %d shards %d k %d workers %d: merged walks %v, full %v",
									seed, qi, shards, k, workers, top, full.Top)
							}
							if full.Stop != nil && full.Stop.Upper == full.Top[k-1].SSP {
								ties++
								if full.Stop.Upper == 1 {
									certain++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs stopped on a tie at the k-th value, %d of them at SSP 1", ties, certain)
	if certain == 0 {
		t.Fatal("no walk stopped on a tie at SSP 1")
	}
}

// mergedWalkTopK answers a top-k query the way the fleet coordinator does:
// each partition's walk, translated to global ids, replayed by ReplayWalks.
// The replay reaching a partition's unvalued stop entry fails the test.
func mergedWalkTopK(t *testing.T, parts []*View, q *graph.Graph, k int, opt QueryOptions) []TopKItem {
	t.Helper()
	walks := make([]*TopKWalk, len(parts))
	for i, p := range parts {
		w, err := p.QueryTopKWalk(bg, q, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		walks[i] = &TopKWalk{Steps: make([]TopKStep, len(w.Steps))}
		for j, s := range w.Steps {
			walks[i].Steps[j] = TopKStep{TopKBound{Graph: p.GID(s.Graph), Upper: s.Upper}, s.SSP}
		}
		if w.Stop != nil {
			walks[i].Stop = &TopKBound{Graph: p.GID(w.Stop.Graph), Upper: w.Stop.Upper}
		}
	}
	top, bad, err := ReplayWalks(walks, k)
	if err != nil {
		t.Fatalf("partition %d: %v", bad, err)
	}
	return top
}
