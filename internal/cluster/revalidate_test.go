package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"probgraph/internal/cluster"
	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/server"
)

// conditionalFleet cuts db into n range shards with result caches on, in
// process, behind a coordinator. It returns the coordinator, each shard's
// own handler, and a function reporting how many sub-requests each shard
// received with If-None-Match set.
func conditionalFleet(t *testing.T, db *core.Database, n int) (*cluster.Coordinator, http.Handler, []http.Handler, func() []int) {
	t.Helper()
	var mu sync.Mutex
	conditional := make([]int, n)
	var handlers []http.Handler
	var members []cluster.Shard
	for i, r := range partitionRanges(t, db, n) {
		part, err := db.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		h := server.New(part, server.Options{}).Handler()
		handlers = append(handlers, h)
		counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("If-None-Match") != "" {
				mu.Lock()
				conditional[i]++
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
		members = append(members, cluster.Shard{Name: fmt.Sprintf("s%d", i), Client: server.NewHandlerClient(counting)})
	}
	coord, err := cluster.New(cluster.Options{Shards: members})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), conditional...)
	}
	return coord, server.NewOver(coord, coord.Registry()).Handler(), handlers, snapshot
}

// shardEndpoint is the shard endpoint a fleet request fans out to, as
// pg_not_modified_total labels it.
var shardEndpoint = map[string]string{"/query": "query", "/topk": "topk_walk", "/batch": "batch"}

// allCached reports whether a /query, /topk or /batch reply says cached —
// for a batch, every member.
func allCached(t *testing.T, path string, body []byte) bool {
	t.Helper()
	if path == "/batch" {
		for _, m := range mustDecode[server.BatchResponse](t, body).Results {
			if !m.Cached {
				return false
			}
		}
		return true
	}
	return mustDecode[struct {
		Cached bool `json:"cached"`
	}](t, body).Cached
}

// TestFleetRevalidationIdentity: with caches on everywhere, at 1, 2 and 3
// shards, a /query, /topk and /batch asked twice answers byte for byte what
// the single node answers both times (time fields aside); the repeat is
// cached and cost each shard exactly one 304, which the coordinator counts
// as not_modified with the shard still up. no_cache requests send no
// If-None-Match, cost no 304, and match the single node's fresh answers.
func TestFleetRevalidationIdentity(t *testing.T) {
	db := testDatabase(t, 3, 12)
	qs := extractQueries(db, 3, 2)
	for _, n := range []int{1, 2, 3} {
		single := server.New(db, server.Options{}).Handler()
		coord, h, shards, conditional := conditionalFleet(t, db, n)
		revalidations := 0
		for _, noCache := range []bool{false, true} {
			query := server.QueryRequest{Graph: server.GraphToJSON(qs[0]), Epsilon: 0.3, Delta: 1, Seed: 3, NoCache: noCache}
			topk := query
			topk.K = 4
			batch := server.BatchRequest{Epsilon: 0.3, Delta: 1, Seed: 3, NoCache: noCache,
				Queries: []server.GraphJSON{*server.GraphToJSON(qs[0]), *server.GraphToJSON(qs[1])}}
			for _, r := range []struct {
				path string
				body any
			}{{"/query", query}, {"/topk", topk}, {"/batch", batch}} {
				series := `pg_not_modified_total{endpoint="` + shardEndpoint[r.path] + `"}`
				for round := range 2 {
					label := fmt.Sprintf("%d shards, no_cache %t, %s round %d", n, noCache, r.path, round)
					before, sentBefore := make([]float64, n), conditional()
					for i, sh := range shards {
						before[i] = metric(t, sh, series)
					}
					st1, b1 := postJSON(t, single, r.path, r.body)
					st2, b2 := postJSON(t, h, r.path, r.body)
					if st1 != http.StatusOK || st2 != http.StatusOK || canonical(r.path, b1) != canonical(r.path, b2) {
						t.Fatalf("%s:\nsingle %d %s\nfleet  %d %s", label, st1, b1, st2, b2)
					}
					revalidated := round == 1 && !noCache
					if cached := allCached(t, r.path, b2); cached != revalidated {
						t.Errorf("%s: cached %t", label, cached)
					}
					sent := conditional()
					for i, sh := range shards {
						want := 0.0
						if revalidated {
							want = 1
						}
						if got := metric(t, sh, series) - before[i]; got != want || sent[i]-sentBefore[i] != int(want) {
							t.Errorf("%s: shard s%d answered %v 304s to %d conditional requests, want %v", label, i, got, sent[i]-sentBefore[i], want)
						}
					}
					if revalidated {
						revalidations++
					}
				}
			}
		}
		for i := range n {
			for series, want := range map[string]float64{
				fmt.Sprintf(`pg_shard_requests_total{shard="s%d",outcome="not_modified"}`, i): float64(revalidations),
				fmt.Sprintf(`pg_shard_up{shard="s%d"}`, i):                                    1,
			} {
				if got := metric(t, h, series); got != want {
					t.Errorf("%d shards: %s = %v, want %v", n, series, got, want)
				}
			}
		}
		if coord.KeptLen() != 3 {
			t.Errorf("%d shards: the coordinator keeps %d replies, want 3 (no_cache keeps nothing)", n, coord.KeptLen())
		}
	}
}

// TestFleetNoCacheAndTracedKeepNothing: a no_cache or traced request —
// traced by its body, whose shard replies carry their own span trees —
// sends no If-None-Match, however often it is repeated, and leaves nothing
// kept; the same request plain is revalidated on its repeat.
func TestFleetNoCacheAndTracedKeepNothing(t *testing.T) {
	db := testDatabase(t, 3, 12)
	q := extractQueries(db, 3, 1)[0]
	plain := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: 3}
	noCache, traced := plain, plain
	noCache.NoCache, traced.Trace = true, true
	coord, h, _, conditional := conditionalFleet(t, db, 2)
	for _, req := range []server.QueryRequest{noCache, traced} {
		for range 3 {
			if st, data := postJSON(t, h, "/query", req); st != http.StatusOK {
				t.Fatalf("%+v: %d %s", req, st, data)
			}
		}
	}
	if sent := conditional(); sent[0] != 0 || sent[1] != 0 || coord.KeptLen() != 0 {
		t.Fatalf("no_cache and traced requests sent %v conditional sub-requests and kept %d replies, want none", sent, coord.KeptLen())
	}
	for range 2 {
		postJSON(t, h, "/query", plain)
	}
	if sent := conditional(); sent[0] != 1 || sent[1] != 1 || coord.KeptLen() != 1 {
		t.Fatalf("a repeated plain request sent %v conditional sub-requests and kept %d replies, want one each and one", sent, coord.KeptLen())
	}
}

// swappable is a shard whose server can be replaced mid-test: a rolled
// shard process.
type swappable struct{ h atomic.Pointer[http.Handler] }

func (s *swappable) set(h http.Handler)                               { s.h.Store(&h) }
func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*s.h.Load()).ServeHTTP(w, r) }

var cachedField = regexp.MustCompile(`"cached":(true|false)`)

// uncached is a reply with its time fields and cached flag blanked.
func uncached(path string, body []byte) string {
	return cachedField.ReplaceAllString(canonical(path, body), `"cached":false`)
}

// TestFleetRevalidationAfterShardMoves: a kept reply is never served once
// its shard has moved. A shard whose database took a mutation answers 200
// at the new generation; a shard rolled to a snapshot of another
// generation makes the fleet answer the generation-mismatch 503 naming
// it; a shard restarted over the same snapshot, at the same generation,
// answers 200 (its tag is another process's) and the fleet the single
// node's answer.
func TestFleetRevalidationAfterShardMoves(t *testing.T) {
	q := extractQueries(testDatabase(t, 7, 8), 7, 1)[0]
	req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: 7}

	// One shard serving a whole, mutable database, and the single node
	// over the same database.
	db := testDatabase(t, 7, 8)
	single := server.New(db, server.Options{}).Handler()
	h := newCoord(t, []cluster.Shard{{Name: "s0", Client: server.NewHandlerClient(server.New(db, server.Options{}).Handler())}})
	for range 2 {
		postJSON(t, h, "/query", req)
	}
	var extra bytes.Buffer
	if err := dataset.EncodePGraph(&extra, testGraphs(t, 71, 1)[0], 0); err != nil {
		t.Fatal(err)
	}
	if st, data := postJSON(t, single, "/graphs", server.AddGraphRequest{GraphText: extra.String()}); st != http.StatusOK {
		t.Fatalf("adding a graph: %d %s", st, data)
	}
	st1, b1 := postJSON(t, single, "/query", req)
	st2, b2 := postJSON(t, h, "/query", req)
	if st1 != http.StatusOK || st2 != http.StatusOK || uncached("/query", b1) != uncached("/query", b2) ||
		mustDecode[server.QueryResponse](t, b2).Generation != 2 {
		t.Fatalf("after a mutation:\nsingle %d %s\nfleet  %d %s", st1, b1, st2, b2)
	}
	if got := metric(t, h, `pg_shard_requests_total{shard="s0",outcome="not_modified"}`); got != 1 {
		t.Fatalf("the mutated shard answered %v 304s, want only the one before the mutation", got)
	}

	// Two range shards; s1 is rolled twice.
	db = testDatabase(t, 7, 8)
	single = server.New(db, server.Options{}).Handler()
	ranges := partitionRanges(t, db, 2)
	p0, err := db.Partition(ranges[0][0], ranges[0][1])
	if err != nil {
		t.Fatal(err)
	}
	p1, err := db.Partition(ranges[1][0], ranges[1][1])
	if err != nil {
		t.Fatal(err)
	}
	moved := testDatabase(t, 7, 8)
	if _, err := moved.RemoveGraph(ranges[1][0]); err != nil {
		t.Fatal(err)
	}
	p1moved, err := moved.Partition(ranges[1][0], ranges[1][1])
	if err != nil {
		t.Fatal(err)
	}
	s1 := &swappable{}
	s1.set(server.New(p1, server.Options{}).Handler())
	h = newCoord(t, []cluster.Shard{
		{Name: "s0", Client: server.NewHandlerClient(server.New(p0, server.Options{}).Handler())},
		{Name: "s1", Client: server.NewHandlerClient(s1)},
	})
	for range 2 {
		postJSON(t, h, "/query", req)
	}
	s1.set(server.New(p1moved, server.Options{}).Handler())
	st, data := postJSON(t, h, "/query", req)
	if e := mustDecode[struct {
		Error string `json:"error"`
		Shard string `json:"shard"`
	}](t, data); st != http.StatusServiceUnavailable || e.Shard != "s1" || !strings.Contains(e.Error, "generation mismatch") {
		t.Fatalf("s1 rolled to generation 2: %d %s, want the generation-mismatch 503 naming s1", st, data)
	}
	s1.set(server.New(p1, server.Options{}).Handler())
	okBefore := metric(t, h, `pg_shard_requests_total{shard="s1",outcome="ok"}`)
	st1, b1 = postJSON(t, single, "/query", req)
	st2, b2 = postJSON(t, h, "/query", req)
	if st1 != http.StatusOK || st2 != http.StatusOK || uncached("/query", b1) != uncached("/query", b2) {
		t.Fatalf("s1 restarted over its snapshot:\nsingle %d %s\nfleet  %d %s", st1, b1, st2, b2)
	}
	if got := metric(t, h, `pg_shard_requests_total{shard="s1",outcome="ok"}`); got != okBefore+1 {
		t.Fatalf("the restarted s1 answered %v 200s, want %v", got, okBefore+1)
	}
}

// TestFleetRevalidationShardDown: a dead shard fails the request with the
// 503 naming it, also for requests whose replies the coordinator kept.
func TestFleetRevalidationShardDown(t *testing.T) {
	db := testDatabase(t, 5, 9)
	var members []cluster.Shard
	var servers []*httptest.Server
	for i, r := range partitionRanges(t, db, 2) {
		part, err := db.Partition(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(server.New(part, server.Options{}).Handler())
		t.Cleanup(hs.Close)
		servers = append(servers, hs)
		members = append(members, cluster.Shard{Name: fmt.Sprintf("s%d", i), Client: server.NewClient(hs.URL)})
	}
	h := newCoord(t, members)
	q := extractQueries(db, 5, 1)[0]
	query := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: 5}
	topk := query
	topk.K = 3
	batch := server.BatchRequest{Queries: []server.GraphJSON{*server.GraphToJSON(q)}, Epsilon: 0.3, Delta: 1, Seed: 5}
	reqs := map[string]any{"/query": query, "/topk": topk, "/batch": batch}
	for path, body := range reqs {
		for range 2 {
			if st, data := postJSON(t, h, path, body); st != http.StatusOK {
				t.Fatalf("%s with the fleet up: %d %s", path, st, data)
			}
		}
	}
	servers[1].Close()
	for path, body := range reqs {
		st, data := postJSON(t, h, path, body)
		if e := mustDecode[struct {
			Shard string `json:"shard"`
		}](t, data); st != http.StatusServiceUnavailable || e.Shard != "s1" {
			t.Fatalf("%s kept, s1 dead: %d %s, want a 503 naming s1", path, st, data)
		}
	}
}

// TestFleetRevalidationConcurrent: many clients asking a few keys at once
// share the kept replies — stored by one request while others revalidate
// and merge them — and every answer is the single node's.
func TestFleetRevalidationConcurrent(t *testing.T) {
	db := testDatabase(t, 3, 12)
	single := server.New(db, server.Options{}).Handler()
	_, h, _, _ := conditionalFleet(t, db, 3)
	var reqs []server.QueryRequest
	var want []string
	for qi, q := range extractQueries(db, 3, 3) {
		req := server.QueryRequest{Graph: server.GraphToJSON(q), Epsilon: 0.3, Delta: 1, Seed: int64(qi)}
		_, b := postJSON(t, single, "/query", req)
		reqs, want = append(reqs, req), append(want, uncached("/query", b))
	}
	var wg sync.WaitGroup
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 24 {
				k := (c + i) % len(reqs)
				data, err := json.Marshal(reqs[k])
				if err != nil {
					t.Error(err)
					return
				}
				rec := serve(h, http.MethodPost, "/query", string(data))
				if got := uncached("/query", rec.Body.Bytes()); rec.Code != http.StatusOK || got != want[k] {
					t.Errorf("client %d, request %d: %d %s\nwant %s", c, i, rec.Code, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}
