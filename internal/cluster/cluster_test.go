package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"probgraph/internal/cluster"
	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/server"
)

func testDatabase(t *testing.T, seed int64, n int) *core.Database {
	t.Helper()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: n, MinVertices: 5, MaxVertices: 7, EdgeFactor: 1.3,
		Labels: 3, Organisms: 2, Correlated: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := core.DefaultBuildOptions()
	opt.Feature.Beta = 0.2
	opt.Feature.Alpha = 0.05
	opt.Feature.Gamma = 0.05
	opt.Feature.MaxL = 3
	opt.PMI.Seed = seed
	db, err := core.NewDatabase(raw.Graphs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// fleet is a coordinator in front of range-partition shard servers, plus
// the equivalent single-node server for comparison.
type fleet struct {
	single *httptest.Server
	shards []*httptest.Server
	coord  *httptest.Server
}

func (f *fleet) Close() {
	f.single.Close()
	for _, s := range f.shards {
		s.Close()
	}
	f.coord.Close()
}

func newFleet(t *testing.T, db *core.Database, shards int) *fleet {
	t.Helper()
	f := &fleet{
		single: httptest.NewServer(server.New(db, server.Options{}).Handler()),
	}
	ranges, err := core.PartitionRanges(db.Len(), shards)
	if err != nil {
		t.Fatal(err)
	}
	var members []cluster.Shard
	for i, r := range ranges {
		part, err := db.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(server.New(part, server.Options{}).Handler())
		f.shards = append(f.shards, hs)
		members = append(members, cluster.Shard{Name: fmt.Sprintf("s%d", i), URL: hs.URL})
	}
	coord, err := cluster.New(cluster.Options{Shards: members})
	if err != nil {
		t.Fatal(err)
	}
	f.coord = httptest.NewServer(server.NewOver(coord, coord.Registry()).Handler())
	return f
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
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

// TestClusterBitwiseIdentity is the acceptance property: every query
// endpoint answers bitwise-identically through the coordinator and the
// single node — answers, names, SSP values, top-k rankings with the
// early-termination merge, batch members, and stream summaries — across
// seeds, worker counts, and 2- and 3-shard fleets.
func TestClusterBitwiseIdentity(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		db := testDatabase(t, seed, 12)
		qs := extractQueries(db, seed, 3)
		for _, shards := range []int{2, 3} {
			f := newFleet(t, db, shards)
			for _, workers := range []int{1, 4} {
				for qi, q := range qs {
					req := server.QueryRequest{
						Graph:   server.GraphToJSON(q),
						Epsilon: 0.3, Delta: 1, Seed: seed + int64(qi), Workers: workers,
					}
					checkQueryParity(t, f, req, seed, shards, workers, qi)
					checkTopKParity(t, f, req, seed, shards, workers, qi)
					checkStreamParity(t, f, req, seed, shards, workers, qi)
				}
				checkBatchParity(t, f, qs, seed, workers)
			}
			f.Close()
		}
	}
}

func checkQueryParity(t *testing.T, f *fleet, req server.QueryRequest, seed int64, shards, workers, qi int) {
	t.Helper()
	st1, b1 := postJSON(t, f.single.URL+"/query", &req)
	st2, b2 := postJSON(t, f.coord.URL+"/query", &req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: /query status %d vs %d (%s / %s)",
			seed, shards, workers, qi, st1, st2, b1, b2)
	}
	r1 := mustDecode[server.QueryResponse](t, b1)
	r2 := mustDecode[server.QueryResponse](t, b2)
	if len(r1.Answers) != len(r2.Answers) || r1.Generation != r2.Generation {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: /query %v gen %d vs %v gen %d",
			seed, shards, workers, qi, r1.Answers, r1.Generation, r2.Answers, r2.Generation)
	}
	for i := range r1.Answers {
		if r1.Answers[i] != r2.Answers[i] || r1.Names[i] != r2.Names[i] {
			t.Fatalf("seed=%d shards=%d workers=%d q=%d: /query answers %v/%v vs %v/%v",
				seed, shards, workers, qi, r1.Answers, r1.Names, r2.Answers, r2.Names)
		}
	}
	if len(r1.SSP) != len(r2.SSP) {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: SSP sizes %d vs %d",
			seed, shards, workers, qi, len(r1.SSP), len(r2.SSP))
	}
	for gid, p := range r1.SSP {
		if r2.SSP[gid] != p {
			t.Fatalf("seed=%d shards=%d workers=%d q=%d: SSP[%d] %v vs %v",
				seed, shards, workers, qi, gid, p, r2.SSP[gid])
		}
	}
	// The merged pipeline counters partition exactly (RelaxedQueries is
	// common to every shard).
	if r1.Stats.StructConfirmed != r2.Stats.StructConfirmed ||
		r1.Stats.PrunedByUpper != r2.Stats.PrunedByUpper ||
		r1.Stats.AcceptedByLower != r2.Stats.AcceptedByLower ||
		r1.Stats.VerifyCandidates != r2.Stats.VerifyCandidates ||
		r1.Stats.RelaxedQueries != r2.Stats.RelaxedQueries {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: stats diverge: %+v vs %+v",
			seed, shards, workers, qi, r1.Stats, r2.Stats)
	}
}

func checkTopKParity(t *testing.T, f *fleet, req server.QueryRequest, seed int64, shards, workers, qi int) {
	t.Helper()
	req.K = 4
	st1, b1 := postJSON(t, f.single.URL+"/topk", &req)
	st2, b2 := postJSON(t, f.coord.URL+"/topk", &req)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: /topk status %d vs %d (%s / %s)",
			seed, shards, workers, qi, st1, st2, b1, b2)
	}
	r1 := mustDecode[server.TopKResponse](t, b1)
	r2 := mustDecode[server.TopKResponse](t, b2)
	if len(r1.Items) != len(r2.Items) {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: /topk %v vs %v",
			seed, shards, workers, qi, r1.Items, r2.Items)
	}
	for i := range r1.Items {
		if r1.Items[i] != r2.Items[i] {
			t.Fatalf("seed=%d shards=%d workers=%d q=%d: /topk item %d: %+v vs %+v",
				seed, shards, workers, qi, i, r1.Items[i], r2.Items[i])
		}
	}
}

func checkBatchParity(t *testing.T, f *fleet, qs []*graph.Graph, seed int64, workers int) {
	t.Helper()
	breq := server.BatchRequest{Epsilon: 0.3, Delta: 1, Seed: seed, Workers: workers}
	for _, q := range qs {
		breq.Queries = append(breq.Queries, *server.GraphToJSON(q))
	}
	st1, b1 := postJSON(t, f.single.URL+"/batch", &breq)
	st2, b2 := postJSON(t, f.coord.URL+"/batch", &breq)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("seed=%d workers=%d: /batch status %d vs %d (%s / %s)", seed, workers, st1, st2, b1, b2)
	}
	r1 := mustDecode[server.BatchResponse](t, b1)
	r2 := mustDecode[server.BatchResponse](t, b2)
	if len(r1.Results) != len(r2.Results) {
		t.Fatalf("seed=%d workers=%d: /batch %d vs %d members", seed, workers, len(r1.Results), len(r2.Results))
	}
	for m := range r1.Results {
		a1, a2 := r1.Results[m].Answers, r2.Results[m].Answers
		if len(a1) != len(a2) {
			t.Fatalf("seed=%d workers=%d member=%d: answers %v vs %v", seed, workers, m, a1, a2)
		}
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("seed=%d workers=%d member=%d: answers %v vs %v", seed, workers, m, a1, a2)
			}
		}
		for gid, p := range r1.Results[m].SSP {
			if r2.Results[m].SSP[gid] != p {
				t.Fatalf("seed=%d workers=%d member=%d: SSP[%d] %v vs %v",
					seed, workers, m, gid, p, r2.Results[m].SSP[gid])
			}
		}
	}
}

// streamCapture is one /query/stream transcript: matches as (graph, ssp)
// pairs sorted by graph (arrival order is scheduling-dependent on both
// sides), plus the terminal summary.
type streamCapture struct {
	matches []server.StreamMatchJSON
	summary server.StreamSummaryJSON
}

func captureStream(t *testing.T, url string, req *server.QueryRequest) streamCapture {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query/stream", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	var cap streamCapture
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %s: %v", line, err)
		}
		switch {
		case probe.Error != "":
			t.Fatalf("stream error: %s", line)
		case probe.Done:
			cap.summary = mustDecode[server.StreamSummaryJSON](t, line)
		default:
			cap.matches = append(cap.matches, mustDecode[server.StreamMatchJSON](t, line))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !cap.summary.Done {
		t.Fatal("stream ended without summary")
	}
	sort.Slice(cap.matches, func(i, j int) bool { return cap.matches[i].Graph < cap.matches[j].Graph })
	return cap
}

func checkStreamParity(t *testing.T, f *fleet, req server.QueryRequest, seed int64, shards, workers, qi int) {
	t.Helper()
	c1 := captureStream(t, f.single.URL, &req)
	c2 := captureStream(t, f.coord.URL, &req)
	if len(c1.matches) != len(c2.matches) {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: stream matches %v vs %v",
			seed, shards, workers, qi, c1.matches, c2.matches)
	}
	for i := range c1.matches {
		if c1.matches[i] != c2.matches[i] {
			t.Fatalf("seed=%d shards=%d workers=%d q=%d: stream match %d: %+v vs %+v",
				seed, shards, workers, qi, i, c1.matches[i], c2.matches[i])
		}
	}
	if len(c1.summary.Answers) != len(c2.summary.Answers) || c1.summary.Count != c2.summary.Count {
		t.Fatalf("seed=%d shards=%d workers=%d q=%d: stream summaries %+v vs %+v",
			seed, shards, workers, qi, c1.summary, c2.summary)
	}
	for i := range c1.summary.Answers {
		if c1.summary.Answers[i] != c2.summary.Answers[i] {
			t.Fatalf("seed=%d shards=%d workers=%d q=%d: stream summaries %+v vs %+v",
				seed, shards, workers, qi, c1.summary, c2.summary)
		}
	}
	for gid, p := range c1.summary.SSP {
		if c2.summary.SSP[gid] != p {
			t.Fatalf("seed=%d shards=%d workers=%d q=%d: stream SSP[%d] %v vs %v",
				seed, shards, workers, qi, gid, p, c2.summary.SSP[gid])
		}
	}
}

// TestClusterShardDown checks the all-or-nothing failure contract: with
// one shard stopped, every endpoint answers a structured 503 naming the
// shard — never a silently partial result.
func TestClusterShardDown(t *testing.T) {
	db := testDatabase(t, 5, 9)
	f := newFleet(t, db, 3)
	defer f.Close()
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
		st, data := postJSON(t, f.coord.URL+path, body)
		if st != http.StatusServiceUnavailable {
			t.Fatalf("%s with a dead shard: status %d (%s), want 503", path, st, data)
		}
		eb := mustDecode[errBody](t, data)
		if eb.Shard != "s1" || eb.Error == "" {
			t.Fatalf("%s error does not name the dead shard: %s", path, data)
		}
	}

	// The stream protocol folds the failure into an in-band error line.
	data, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.coord.URL+"/query/stream", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawError bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if json.Unmarshal(sc.Bytes(), &probe) != nil {
			continue
		}
		if probe.Done {
			t.Fatalf("stream completed despite a dead shard: %s", sc.Bytes())
		}
		if probe.Error != "" {
			sawError = true
			if !bytes.Contains(sc.Bytes(), []byte("s1")) {
				t.Fatalf("stream error does not name the dead shard: %s", sc.Bytes())
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
	f := newFleet(t, db, 2)
	defer f.Close()

	resp, err := http.Get(f.coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with fleet up: %d (%s)", resp.StatusCode, body)
	}

	f.shards[0].Close()
	resp, err = http.Get(f.coord.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a dead shard: %d (%s)", resp.StatusCode, body)
	}
	var rb struct {
		Ready  bool     `json:"ready"`
		Failed []string `json:"failed"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if rb.Ready || len(rb.Failed) != 1 || rb.Failed[0] != "s0" {
		t.Fatalf("/readyz body does not name the dead shard: %s", body)
	}
}

// TestClusterGenerationMismatch checks that a half-rolled-out fleet
// (shards partitioned from different source generations) is refused.
func TestClusterGenerationMismatch(t *testing.T) {
	db := testDatabase(t, 7, 8)
	ranges, err := core.PartitionRanges(db.Len(), 2)
	if err != nil {
		t.Fatal(err)
	}
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
	s0 := httptest.NewServer(server.New(p0, server.Options{}).Handler())
	defer s0.Close()
	s1 := httptest.NewServer(server.New(p1, server.Options{}).Handler())
	defer s1.Close()
	coord, err := cluster.New(cluster.Options{Shards: []cluster.Shard{
		{Name: "s0", URL: s0.URL}, {Name: "s1", URL: s1.URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ch := httptest.NewServer(server.NewOver(coord, coord.Registry()).Handler())
	defer ch.Close()

	q := extractQueries(db, 7, 1)[0]
	req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: 7}
	st, data := postJSON(t, ch.URL+"/query", &req)
	if st != http.StatusServiceUnavailable || !bytes.Contains(data, []byte("generation mismatch")) {
		t.Fatalf("mixed-generation fleet: %d (%s), want 503 generation mismatch", st, data)
	}
}

// TestClusterCancellationPropagates checks that a client abandoning a
// coordinator request cancels the shard sub-requests (the shard sees its
// own request context end).
func TestClusterCancellationPropagates(t *testing.T) {
	shardSaw := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body like a real shard's decode path does — net/http
		// only watches for client disconnect once the body is consumed.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		close(shardSaw)
	}))
	defer stuck.Close()
	coord, err := cluster.New(cluster.Options{
		Shards:  []cluster.Shard{{Name: "s0", URL: stuck.URL}},
		Retries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := httptest.NewServer(server.NewOver(coord, coord.Registry()).Handler())
	defer ch.Close()

	db := testDatabase(t, 3, 4)
	q := extractQueries(db, 3, 1)[0]
	body, err := json.Marshal(&server.QueryRequest{
		Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ch.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() { _, err := http.DefaultClient.Do(req); errc <- err }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request reported no error")
	}
	select {
	case <-shardSaw:
	case <-time.After(5 * time.Second):
		t.Fatal("shard sub-request context never cancelled")
	}
}

// TestClusterTimeoutPropagates checks that a shard's structured 504
// (timeout_ms expiry) surfaces as the coordinator's 504 with the timeout
// flag, naming the shard.
func TestClusterTimeoutPropagates(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		json.NewEncoder(w).Encode(map[string]any{"error": "query timed out", "timeout": true})
	}))
	defer slow.Close()
	coord, err := cluster.New(cluster.Options{
		Shards: []cluster.Shard{{Name: "s0", URL: slow.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ch := httptest.NewServer(server.NewOver(coord, coord.Registry()).Handler())
	defer ch.Close()

	db := testDatabase(t, 3, 4)
	q := extractQueries(db, 3, 1)[0]
	req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, TimeoutMS: 1}
	st, data := postJSON(t, ch.URL+"/query", &req)
	if st != http.StatusGatewayTimeout {
		t.Fatalf("shard 504: coordinator answered %d (%s)", st, data)
	}
	var eb struct {
		Shard   string `json:"shard"`
		Timeout bool   `json:"timeout"`
	}
	if err := json.Unmarshal(data, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Shard != "s0" || !eb.Timeout {
		t.Fatalf("504 body lacks shard/timeout: %s", data)
	}
}
