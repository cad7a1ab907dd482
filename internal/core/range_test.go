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
		var buf bytes.Buffer
		if err := db.View().SaveRange(&buf, 4, 10, format); err != nil {
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

// TestLocalOf checks the global→local inverse on identity and partition
// views.
func TestLocalOf(t *testing.T) {
	db, _ := smallDatabase(t, 3, 8, false)
	v := db.View()
	if v.LocalOf(3) != 3 || v.LocalOf(8) != -1 || v.LocalOf(-1) != -1 {
		t.Fatalf("identity LocalOf broken: %d %d %d", v.LocalOf(3), v.LocalOf(8), v.LocalOf(-1))
	}
	part, err := db.Partition(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	pv := part.View()
	for li := 0; li < pv.Len(); li++ {
		if pv.LocalOf(pv.GID(li)) != li {
			t.Fatalf("LocalOf(GID(%d)) = %d", li, pv.LocalOf(pv.GID(li)))
		}
	}
	if pv.LocalOf(0) != -1 || pv.LocalOf(6) != -1 {
		t.Fatalf("out-of-range gids resolved: %d %d", pv.LocalOf(0), pv.LocalOf(6))
	}
}

// TestTopKBoundsDistributedReplay replays the coordinator's distributed
// top-k at the library level: per-partition bound schedules merged into
// the serial verification order, SSPs fetched from the owning partition
// via VerifySSPBatch, serial early-termination rule applied — the result
// must be bitwise the full database's QueryTopK at every worker count.
func TestTopKBoundsDistributedReplay(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		db, _ := smallDatabase(t, seed, 12, true)
		rng := rand.New(rand.NewSource(seed))
		q := dataset.ExtractQuery(db.View().Graphs[2].G, 4, rng)
		const k = 4
		opt := QueryOptions{Delta: 1, OptBounds: true, Seed: seed}
		for _, workers := range []int{1, 4} {
			wopt := opt
			wopt.Concurrency = workers
			full, err := db.View().QueryTopKCtx(bg, q, k, wopt)
			if err != nil {
				t.Fatal(err)
			}
			var shards []*View
			for _, p := range partitionAll(t, db, 3) {
				shards = append(shards, p.View())
			}
			if top, _ := replayTopK(t, shards, q, k, wopt); !slices.Equal(top, full) {
				t.Fatalf("seed=%d workers=%d: replay %v != full %v", seed, workers, top, full)
			}
		}
	}
}
