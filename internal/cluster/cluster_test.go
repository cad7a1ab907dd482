package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"probgraph/internal/cluster"
	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
	"probgraph/internal/server"
)

func testGraphs(t *testing.T, seed int64, n int) []*prob.PGraph {
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

func testDatabase(t *testing.T, seed int64, n int) *core.Database {
	t.Helper()
	opt := core.DefaultBuildOptions()
	opt.Feature.Beta = 0.2
	opt.Feature.Alpha = 0.05
	opt.Feature.Gamma = 0.05
	opt.Feature.MaxL = 3
	opt.PMI.Seed = seed
	db, err := core.NewDatabase(testGraphs(t, seed, n), opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newCoord serves a coordinator over the given shards.
func newCoord(t *testing.T, shards []cluster.Shard) http.Handler {
	t.Helper()
	coord, err := cluster.New(cluster.Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return server.NewOver(coord, coord.Registry()).Handler()
}

// fleet is a coordinator in front of range-partition shard servers, plus
// the equivalent single-node server for comparison. The tests call both
// handlers directly. The coordinator reaches its shards in process, or
// over loopback HTTP when the fleet is built that way — then shards holds
// their servers, so a test can stop one.
type fleet struct {
	single, coord http.Handler
	shards        []*httptest.Server
}

// newFleet cuts db at the given ranges, one shard each. No server caches,
// so every request is evaluated.
func newFleet(t *testing.T, db *core.Database, ranges [][2]int, overHTTP bool) *fleet {
	t.Helper()
	opt := server.Options{CacheSize: -1}
	f := &fleet{single: server.New(db, opt).Handler()}
	var members []cluster.Shard
	for i, r := range ranges {
		part, err := db.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		h := server.New(part, opt).Handler()
		client := server.NewHandlerClient(h)
		if overHTTP {
			hs := httptest.NewServer(h)
			t.Cleanup(hs.Close)
			f.shards = append(f.shards, hs)
			client = server.NewClient(hs.URL)
		}
		members = append(members, cluster.Shard{Name: fmt.Sprintf("s%d", i), Client: client})
	}
	f.coord = newCoord(t, members)
	return f
}

func partitionRanges(t *testing.T, db *core.Database, shards int) [][2]int {
	t.Helper()
	ranges, err := core.PartitionRanges(db.Len(), shards)
	if err != nil {
		t.Fatal(err)
	}
	return ranges
}

// serve runs one request through h in process.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func postJSON(t *testing.T, h http.Handler, path string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(h, http.MethodPost, path, string(data))
	return rec.Code, rec.Body.Bytes()
}

func mustDecode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return v
}

func extractQueries(db *core.Database, seed int64, n int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*graph.Graph, n)
	for i := range qs {
		qs[i] = dataset.ExtractQuery(db.View().Graphs[i%db.Len()].G, 4, rng)
	}
	return qs
}

// timeFields matches time_ms / time_*_ms values: the only bytes two
// evaluations of one request may differ in.
var timeFields = regexp.MustCompile(`"time(_[a-z]+)?_ms":[-0-9.e+]+`)

// canonical is an answer with its time fields blanked. A stream's match
// lines are sorted too: their arrival order is scheduling.
func canonical(path string, body []byte) string {
	s := timeFields.ReplaceAllString(string(body), `"time_ms":0`)
	if path != "/query/stream" {
		return s
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	slices.Sort(lines[:len(lines)-1])
	return strings.Join(lines, "\n")
}

// checkParity sends all four query endpoints the same requests through
// the single node and the fleet, at two worker counts, and requires the
// same bytes back: answers, names, SSP values, merged pipeline counters,
// top-k rankings with the early-termination merge, batch members, stream
// matches and summaries.
func checkParity(t *testing.T, f *fleet, qs []*graph.Graph, eps float64, delta int, seed int64, label string) {
	t.Helper()
	type request struct {
		path string
		body any
	}
	for _, workers := range []int{1, 4} {
		var reqs []request
		batch := server.BatchRequest{Epsilon: eps, Delta: delta, Seed: seed, Workers: workers}
		for qi, q := range qs {
			req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: eps, Delta: delta, Seed: seed + int64(qi), Workers: workers}
			topk := req
			topk.K = 4
			reqs = append(reqs, request{"/query", req}, request{"/query/stream", req}, request{"/topk", topk})
			batch.Queries = append(batch.Queries, *server.GraphToJSON(q))
		}
		reqs = append(reqs, request{"/batch", batch})
		for _, r := range reqs {
			st1, b1 := postJSON(t, f.single, r.path, r.body)
			st2, b2 := postJSON(t, f.coord, r.path, r.body)
			if st1 != http.StatusOK || st2 != http.StatusOK || canonical(r.path, b1) != canonical(r.path, b2) {
				t.Fatalf("%s workers=%d %s:\nsingle %d %s\nfleet  %d %s", label, workers, r.path, st1, b1, st2, b2)
			}
		}
	}
}

// TestClusterBitwiseIdentity is the acceptance property: every query
// endpoint answers byte for byte the same through the coordinator and
// the single node, across seeds, worker counts, and 1-, 2- and 3-shard
// fleets in process — and once with the shards behind loopback HTTP, so
// the socket transport is held to it too.
func TestClusterBitwiseIdentity(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		db := testDatabase(t, seed, 12)
		qs := extractQueries(db, seed, 3)
		for _, shards := range []int{1, 2, 3} {
			f := newFleet(t, db, partitionRanges(t, db, shards), false)
			checkParity(t, f, qs, 0.3, 1, seed, fmt.Sprintf("seed=%d shards=%d", seed, shards))
		}
	}
	db := testDatabase(t, 3, 12)
	f := newFleet(t, db, partitionRanges(t, db, 2), true)
	checkParity(t, f, extractQueries(db, 3, 3), 0.3, 1, 3, "over HTTP")
}

// TestClusterIdentitySweep widens the property past PartitionRanges:
// random seeds and knobs, a database that went through an
// add/remove/replace chain before it was cut (so tombstones fall inside
// ranges), and arbitrary cut points.
func TestClusterIdentitySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 10 {
		seed := rng.Int63n(1 << 20)
		db := testDatabase(t, seed, 10)
		qs := extractQueries(db, seed, 2)
		extra := testGraphs(t, seed+1, 2)
		live := func() int {
			for {
				if gi := rng.Intn(db.Len()); db.View().Live(gi) {
					return gi
				}
			}
		}
		if _, _, err := db.AddGraph(extra[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RemoveGraph(live()); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ReplaceGraph(live(), extra[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := db.RemoveGraph(live()); err != nil {
			t.Fatal(err)
		}
		ranges := randomRanges(rng, db.View())
		eps, delta := []float64{0.2, 0.3, 0.5}[rng.Intn(3)], 1+rng.Intn(2)
		checkParity(t, newFleet(t, db, ranges, false), qs, eps, delta, seed,
			fmt.Sprintf("trial=%d seed=%d ranges=%v eps=%v delta=%d", trial, seed, ranges, eps, delta))
	}
}

// randomRanges cuts [0, v.Len()) into two or three contiguous ranges at
// random points, each holding at least one live graph.
func randomRanges(rng *rand.Rand, v *core.View) [][2]int {
	for {
		cuts := []int{0, v.Len()}
		for range 1 + rng.Intn(2) {
			cuts = append(cuts, 1+rng.Intn(v.Len()-1))
		}
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		var ranges [][2]int
		for i := 1; i < len(cuts); i++ {
			ranges = append(ranges, [2]int{cuts[i-1], cuts[i]})
		}
		if !slices.ContainsFunc(ranges, func(r [2]int) bool { return !hasLive(v, r) }) {
			return ranges
		}
	}
}

func hasLive(v *core.View, r [2]int) bool {
	for gi := r[0]; gi < r[1]; gi++ {
		if v.Live(gi) {
			return true
		}
	}
	return false
}

// countingFleet cuts db into n range shards served with opt, in process,
// behind a coordinator. It returns the coordinator, each shard's own
// handler (requests sent to it directly are not counted), and a snapshot
// function of the paths each shard received through the coordinator.
func countingFleet(t *testing.T, db *core.Database, n int, opt server.Options) (http.Handler, []http.Handler, func() []map[string]int) {
	t.Helper()
	var mu sync.Mutex
	var seen []map[string]int
	var handlers []http.Handler
	var members []cluster.Shard
	for i, r := range partitionRanges(t, db, n) {
		part, err := db.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		h := server.New(part, opt).Handler()
		counts := map[string]int{}
		seen, handlers = append(seen, counts), append(handlers, h)
		counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			counts[r.URL.Path]++
			mu.Unlock()
			h.ServeHTTP(w, r)
		})
		members = append(members, cluster.Shard{Name: fmt.Sprintf("s%d", i), Client: server.NewHandlerClient(counting)})
	}
	snapshot := func() []map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := make([]map[string]int, len(seen))
		for i, c := range seen {
			out[i] = maps.Clone(c)
		}
		return out
	}
	return newCoord(t, members), handlers, snapshot
}

// TestTopKOneSubRequestPerShard: a fleet /topk costs one round trip per
// shard — one /topk/walk each and nothing else — whether the walks verify
// (δ 1) or the query is degenerate (δ ≥ |E(q)|, every live graph at SSP 1),
// and the answer is the single node's.
func TestTopKOneSubRequestPerShard(t *testing.T) {
	db := testDatabase(t, 3, 12)
	q := extractQueries(db, 3, 1)[0]
	opt := server.Options{CacheSize: -1}
	single := server.New(db, opt).Handler()
	for _, delta := range []int{1, q.NumEdges()} {
		coord, _, counts := countingFleet(t, db, 3, opt)
		req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: delta, Seed: 3, K: 4}
		st1, b1 := postJSON(t, single, "/topk", req)
		st2, b2 := postJSON(t, coord, "/topk", req)
		if st1 != http.StatusOK || st2 != http.StatusOK || canonical("/topk", b1) != canonical("/topk", b2) {
			t.Fatalf("delta %d:\nsingle %d %s\nfleet  %d %s", delta, st1, b1, st2, b2)
		}
		if items := mustDecode[server.TopKResponse](t, b2).Items; len(items) == 0 {
			t.Fatalf("delta %d: empty ranking, nothing was walked", delta)
		}
		for i, c := range counts() {
			if !maps.Equal(c, map[string]int{"/topk/walk": 1}) {
				t.Errorf("delta %d: shard s%d received %v, want one /topk/walk", delta, i, c)
			}
		}
	}
}

// TestFleetTopKRevalidatedByShards: with result caches on, a repeated
// fleet /topk is still one /topk/walk per shard, each answered with a 304
// that revalidates the walk the coordinator kept (a walk is /topk's cache
// entry, tagged with the shard's generation), so the merged reply says
// cached as the single node's does — and ranks bitwise the same.
func TestFleetTopKRevalidatedByShards(t *testing.T) {
	db := testDatabase(t, 3, 12)
	q := extractQueries(db, 3, 1)[0]
	req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: 3, K: 4}
	const notModified = `pg_not_modified_total{endpoint="topk_walk"}`
	for _, n := range []int{2, 3} {
		single := server.New(db, server.Options{}).Handler()
		coord, shards, counts := countingFleet(t, db, n, server.Options{})
		for round := range 2 {
			before := make([]float64, n)
			for i, h := range shards {
				before[i] = metric(t, h, notModified)
			}
			st1, b1 := postJSON(t, single, "/topk", req)
			st2, b2 := postJSON(t, coord, "/topk", req)
			if st1 != http.StatusOK || st2 != http.StatusOK || canonical("/topk", b1) != canonical("/topk", b2) {
				t.Fatalf("%d shards, round %d:\nsingle %d %s\nfleet  %d %s", n, round, st1, b1, st2, b2)
			}
			if got := mustDecode[server.TopKResponse](t, b2); len(got.Items) == 0 || got.Cached != (round == 1) {
				t.Fatalf("%d shards, round %d: %d items, cached %t", n, round, len(got.Items), got.Cached)
			}
			for i, c := range counts() {
				if !maps.Equal(c, map[string]int{"/topk/walk": round + 1}) {
					t.Errorf("%d shards, round %d: shard s%d received %v, want one /topk/walk per round", n, round, i, c)
				}
				if rose := metric(t, shards[i], notModified) > before[i]; rose != (round == 1) {
					t.Errorf("%d shards, round %d: shard s%d %s %v -> %v", n, round, i, notModified, before[i], metric(t, shards[i], notModified))
				}
			}
		}
	}
}

// metric reads one series from a server's /metrics, 0 when it is absent.
func metric(t *testing.T, h http.Handler, series string) float64 {
	t.Helper()
	m := serve(h, http.MethodGet, "/metrics", "").Body.String()
	for _, line := range strings.Split(m, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			var x float64
			if _, err := fmt.Sscan(v, &x); err != nil {
				t.Fatal(err)
			}
			return x
		}
	}
	return 0
}

// TestClusterShardDown checks the all-or-nothing failure contract: with
// one shard stopped, every endpoint answers a structured 503 naming the
// shard — never a silently partial result.
func TestClusterShardDown(t *testing.T) {
	db := testDatabase(t, 5, 9)
	f := newFleet(t, db, partitionRanges(t, db, 3), true)
	f.shards[1].Close() // s1 goes dark

	q := extractQueries(db, 5, 1)[0]
	req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: 5}

	type errBody struct {
		Error string `json:"error"`
		Shard string `json:"shard"`
	}
	for _, path := range []string{"/query", "/batch", "/topk"} {
		var body any = &req
		if path == "/batch" {
			body = &server.BatchRequest{
				Queries: []server.GraphJSON{*server.GraphToJSON(q)},
				Epsilon: 0.3, Delta: 1, Seed: 5,
			}
		}
		if path == "/topk" {
			r2 := req
			r2.K = 3
			body = &r2
		}
		st, data := postJSON(t, f.coord, path, body)
		if st != http.StatusServiceUnavailable {
			t.Fatalf("%s with a dead shard: status %d (%s), want 503", path, st, data)
		}
		eb := mustDecode[errBody](t, data)
		if eb.Shard != "s1" || eb.Error == "" {
			t.Fatalf("%s error does not name the dead shard: %s", path, data)
		}
	}

	// The stream protocol folds the failure into an in-band error line.
	_, data := postJSON(t, f.coord, "/query/stream", &req)
	var sawError bool
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var probe struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		if probe.Done {
			t.Fatalf("stream completed despite a dead shard: %s", line)
		}
		if probe.Error != "" {
			sawError = true
			if !bytes.Contains(line, []byte("s1")) {
				t.Fatalf("stream error does not name the dead shard: %s", line)
			}
		}
	}
	if !sawError {
		t.Fatal("stream with a dead shard produced no error line")
	}
}

// TestClusterReadyz checks coordinator readiness: 200 with the whole
// fleet up, 503 naming the unreachable shard otherwise.
func TestClusterReadyz(t *testing.T) {
	db := testDatabase(t, 3, 6)
	f := newFleet(t, db, partitionRanges(t, db, 2), true)

	if rec := serve(f.coord, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
		t.Fatalf("/readyz with fleet up: %d (%s)", rec.Code, rec.Body)
	}

	f.shards[0].Close()
	rec := serve(f.coord, http.MethodGet, "/readyz", "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a dead shard: %d (%s)", rec.Code, rec.Body)
	}
	var rb struct {
		Ready  bool     `json:"ready"`
		Failed []string `json:"failed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Ready || len(rb.Failed) != 1 || rb.Failed[0] != "s0" {
		t.Fatalf("/readyz body does not name the dead shard: %s", rec.Body)
	}
}

// TestClusterGenerationMismatch checks that a half-rolled-out fleet
// (shards partitioned from different source generations) is refused.
func TestClusterGenerationMismatch(t *testing.T) {
	db := testDatabase(t, 7, 8)
	ranges := partitionRanges(t, db, 2)
	p0, err := db.Partition(ranges[0][0], ranges[0][1])
	if err != nil {
		t.Fatal(err)
	}
	// Bump the source generation, then partition the second shard from the
	// newer state.
	if _, err := db.RemoveGraph(ranges[1][0]); err != nil {
		t.Fatal(err)
	}
	p1, err := db.Partition(ranges[1][0], ranges[1][1])
	if err != nil {
		t.Fatal(err)
	}
	coord := newCoord(t, []cluster.Shard{
		{Name: "s0", Client: server.NewHandlerClient(server.New(p0, server.Options{}).Handler())},
		{Name: "s1", Client: server.NewHandlerClient(server.New(p1, server.Options{}).Handler())},
	})

	q := extractQueries(db, 7, 1)[0]
	req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: 7}
	st, data := postJSON(t, coord, "/query", &req)
	if st != http.StatusServiceUnavailable || !bytes.Contains(data, []byte("generation mismatch")) {
		t.Fatalf("mixed-generation fleet: %d (%s), want 503 generation mismatch", st, data)
	}
}

// TestClusterCancellationPropagates checks that a client abandoning a
// coordinator request cancels the shard sub-request (the shard sees its
// own request context end) — and that the shard, cut off rather than
// failing, is still counted up.
func TestClusterCancellationPropagates(t *testing.T) {
	reached, shardSaw := make(chan struct{}), make(chan struct{})
	coord := coordOver(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(reached)
		<-r.Context().Done()
		close(shardSaw)
	}))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		coord.ServeHTTP(httptest.NewRecorder(),
			httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(hostileQuery)).WithContext(ctx))
	}()
	select {
	case <-reached:
	case <-time.After(5 * time.Second):
		t.Fatal("shard sub-request never arrived")
	}
	cancel()
	select {
	case <-shardSaw:
	case <-time.After(5 * time.Second):
		t.Fatal("shard sub-request context never cancelled")
	}
	<-done
	checkShardUp(t, coord, "after a client cancelled /query")
}

// checkShardUp: the coordinator still counts shard s0 up — pg_shard_up 1,
// and no failed exchange on pg_shard_requests_total (still the 0 a fresh
// coordinator starts at; every caller's coordinator is fresh).
func checkShardUp(t *testing.T, coord http.Handler, what string) {
	t.Helper()
	m := serve(coord, http.MethodGet, "/metrics", "").Body.String()
	for _, want := range []string{`pg_shard_up{shard="s0"} 1`, `pg_shard_requests_total{shard="s0",outcome="error"} 0`} {
		if !strings.Contains(m, "\n"+want+"\n") {
			t.Errorf("%s: /metrics lacks %s", what, want)
		}
	}
}

// TestFleetStatsMatchSingleNode: a fleet's merged pipeline counters — the
// verification ladder's among them — are the single node's, for /query and
// for every /batch member, with the timings zeroed (shards time their own
// share). The sweep must reach the ladder's bound and exact rungs.
func TestFleetStatsMatchSingleNode(t *testing.T) {
	db := testDatabase(t, 5, 16)
	ladder := checkFleetStats(t, db, extractQueries(db, 5, 6))
	if ladder.RejectedByBound == 0 || ladder.DecidedExactly == 0 {
		t.Fatalf("the sweep never reached a ladder rung (rejected by bound %d, decided exactly %d)", ladder.RejectedByBound, ladder.DecidedExactly)
	}
}

// TestFleetStatsCountSampledWorlds is TestFleetStatsMatchSingleNode over a
// database with one blown-up copy of each query (heavyGraph), whose DNF is
// too wide to eliminate: the sweep must reach the sampler, and the fleet
// must sum the worlds its shards drew.
func TestFleetStatsCountSampledWorlds(t *testing.T) {
	db := testDatabase(t, 5, 16)
	qs := extractQueries(db, 5, 6)
	rng := rand.New(rand.NewSource(5))
	graphs := slices.Clone(db.View().Graphs)
	for _, q := range qs {
		graphs = append(graphs, heavyGraph(t, q, rng))
	}
	opt := core.DefaultBuildOptions()
	opt.Feature.Beta, opt.Feature.Alpha, opt.Feature.Gamma, opt.Feature.MaxL = 0.2, 0.05, 0.05, 3
	heavy, err := core.NewDatabase(graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if ladder := checkFleetStats(t, heavy, qs); ladder.SamplesDrawn == 0 {
		t.Fatalf("the sweep never reached the sampler (rejected by bound %d, decided exactly %d)", ladder.RejectedByBound, ladder.DecidedExactly)
	}
}

// heavyGraph is q blown up: every vertex of q becomes two of its label and
// every edge the four edges between their copies, each present
// independently. q embeds in it many times over and its clauses couple
// edges all across it, so the elimination of its DNF is over budget and
// the ladder samples it.
func heavyGraph(t *testing.T, q *graph.Graph, rng *rand.Rand) *prob.PGraph {
	t.Helper()
	b := graph.NewBuilder("heavy")
	for v := range q.NumVertices() {
		b.AddVertices(2, q.VertexLabel(graph.VertexID(v)))
	}
	p := map[graph.EdgeID]float64{}
	for _, e := range q.Edges() {
		for _, u := range []graph.VertexID{2 * e.U, 2*e.U + 1} {
			for _, w := range []graph.VertexID{2 * e.V, 2*e.V + 1} {
				p[b.MustAddEdge(u, w, e.Label)] = 0.05 + 0.3*rng.Float64()
			}
		}
	}
	pg, err := prob.NewIndependent(b.Build(), p)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// checkFleetStats sweeps ε 0.3/0.6 × δ 1/2 over qs, as /query and as one
// /batch, against db's single node and a 3-shard fleet of it, fails on
// any counter that differs, and returns the single node's ladder counters
// summed.
func checkFleetStats(t *testing.T, db *core.Database, qs []*graph.Graph) (ladder server.StatsJSON) {
	t.Helper()
	counters := func(s server.StatsJSON) server.StatsJSON {
		s.TimeStructMS, s.TimeProbMS, s.TimeVerifyMS, s.TimeTotalMS = 0, 0, 0, 0
		return s
	}
	f := newFleet(t, db, partitionRanges(t, db, 3), false)
	check := func(label string, single, fleet server.StatsJSON) {
		t.Helper()
		if counters(single) != counters(fleet) {
			t.Fatalf("%s: fleet stats %+v, single node %+v", label, counters(fleet), counters(single))
		}
		ladder.RejectedByBound += single.RejectedByBound
		ladder.DecidedExactly += single.DecidedExactly
		ladder.SamplesDrawn += single.SamplesDrawn
	}
	for _, eps := range []float64{0.3, 0.6} {
		for _, delta := range []int{1, 2} {
			batch := server.BatchRequest{Epsilon: eps, Delta: delta, Seed: 9}
			for qi, q := range qs {
				req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: eps, Delta: delta, Seed: 9 + int64(qi)}
				_, b1 := postJSON(t, f.single, "/query", req)
				_, b2 := postJSON(t, f.coord, "/query", req)
				label := fmt.Sprintf("ε=%v δ=%d /query %d", eps, delta, qi)
				check(label, mustDecode[server.QueryResponse](t, b1).Stats, mustDecode[server.QueryResponse](t, b2).Stats)
				batch.Queries = append(batch.Queries, *server.GraphToJSON(q))
			}
			_, b1 := postJSON(t, f.single, "/batch", batch)
			_, b2 := postJSON(t, f.coord, "/batch", batch)
			single, fleet := mustDecode[server.BatchResponse](t, b1), mustDecode[server.BatchResponse](t, b2)
			if len(single.Results) != len(qs) || len(fleet.Results) != len(qs) {
				t.Fatalf("ε=%v δ=%d: batch of %d answered %d (single) and %d (fleet) members", eps, delta, len(qs), len(single.Results), len(fleet.Results))
			}
			for i := range qs {
				check(fmt.Sprintf("ε=%v δ=%d /batch member %d", eps, delta, i), single.Results[i].Stats, fleet.Results[i].Stats)
			}
		}
	}
	return ladder
}
