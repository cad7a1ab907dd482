package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
)

// testEnv builds a small indexed database, snapshots it, reloads it (the
// pgserve startup path), and serves the reloaded copy — so every assertion
// below also exercises snapshot fidelity.
type testEnv struct {
	fresh  *core.Database // the database that wrote the snapshot
	db     *core.Database // the reloaded copy srv serves
	srv    *Server
	ts     *httptest.Server
	raw    *dataset.DB
	qs     []*graph.Graph
	qtexts []string
}

func newTestEnv(t *testing.T, opt Options) *testEnv {
	t.Helper()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 10, MinVertices: 5, MaxVertices: 7, Organisms: 3,
		Correlated: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewDatabase(raw.Graphs, core.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := fresh.View().SaveAs(&snap, core.SnapshotText); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadDatabase(&snap)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(loaded, opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	rng := rand.New(rand.NewSource(5))
	env := &testEnv{fresh: fresh, db: loaded, srv: srv, ts: ts, raw: raw}
	for i := 0; i < 3; i++ {
		q := dataset.ExtractQuery(raw.Graphs[i].G, 4, rng)
		var buf bytes.Buffer
		if err := graph.Encode(&buf, q); err != nil {
			t.Fatal(err)
		}
		env.qs = append(env.qs, q)
		env.qtexts = append(env.qtexts, buf.String())
	}
	return env
}

func (env *testEnv) post(t *testing.T, path string, req any, resp any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(env.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return hr
}

func (env *testEnv) get(t *testing.T, path string, resp any) {
	t.Helper()
	hr, err := http.Get(env.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, hr.StatusCode)
	}
	if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
}

// TestQueryMatchesLibraryBitwise: a /query response must equal
// View.QueryCtx on the freshly built database — same answers, same SSP
// floats bit for bit — and a repeated request must come from the cache.
func TestQueryMatchesLibraryBitwise(t *testing.T) {
	env := newTestEnv(t, Options{})
	for i, q := range env.qs {
		opt := core.QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: int64(7 + i)}
		want, err := env.fresh.View().QueryCtx(context.Background(), q, opt)
		if err != nil {
			t.Fatal(err)
		}
		req := QueryRequest{GraphText: env.qtexts[i], Epsilon: 0.4, Delta: 1, Seed: int64(7 + i)}

		var got QueryResponse
		hr := env.post(t, "/query", req, &got)
		if hr.StatusCode != http.StatusOK {
			t.Fatalf("query %d: status %d", i, hr.StatusCode)
		}
		if got.Cached {
			t.Fatalf("query %d: first request reported cached", i)
		}
		wantAnswers := want.Answers
		if wantAnswers == nil {
			wantAnswers = []int{}
		}
		if !reflect.DeepEqual(got.Answers, wantAnswers) {
			t.Fatalf("query %d: answers %v != library %v", i, got.Answers, want.Answers)
		}
		if len(got.SSP) != len(want.SSP) {
			t.Fatalf("query %d: SSP size %d != %d", i, len(got.SSP), len(want.SSP))
		}
		for gi, ssp := range want.SSP {
			if got.SSP[gi] != ssp {
				t.Fatalf("query %d: SSP[%d] = %v != %v (not bitwise)", i, gi, got.SSP[gi], ssp)
			}
		}

		// Identical request again: must be served from the cache with the
		// identical payload.
		var again QueryResponse
		env.post(t, "/query", req, &again)
		if !again.Cached {
			t.Fatalf("query %d: repeat not served from cache", i)
		}
		if !reflect.DeepEqual(again.Answers, got.Answers) || !reflect.DeepEqual(again.SSP, got.SSP) {
			t.Fatalf("query %d: cached response differs", i)
		}
	}

	_, series := scrapeMetrics(t, env)
	if got := series["pg_cache_hits_total"]; got < float64(len(env.qs)) {
		t.Fatalf("pg_cache_hits_total = %v, want >= %d", got, len(env.qs))
	}
	if got := queriesTotal(series); got != float64(2*len(env.qs)) {
		t.Fatalf("pg_queries_total sums to %v, want %d", got, 2*len(env.qs))
	}
}

// TestQueryJSONGraphAndWorkersShareCache: the structured-JSON presentation
// of the same query, and any workers setting, hit the same cache entry.
func TestQueryJSONGraphAndWorkersShareCache(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}
	var first QueryResponse
	env.post(t, "/query", req, &first)

	jreq := QueryRequest{Graph: GraphToJSON(env.qs[0]), Epsilon: 0.4, Delta: 1, Seed: 3, Workers: 4}
	var second QueryResponse
	env.post(t, "/query", jreq, &second)
	if !second.Cached {
		t.Fatal("same query via JSON graph + different workers missed the cache")
	}
	if !reflect.DeepEqual(first.Answers, second.Answers) {
		t.Fatal("cached answers differ")
	}

	// Different seed must NOT hit.
	sreq := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 4}
	var third QueryResponse
	env.post(t, "/query", sreq, &third)
	if third.Cached {
		t.Fatal("different seed wrongly served from cache")
	}
}

// TestTopKEndpoint mirrors QueryTopK.
func TestTopKEndpoint(t *testing.T) {
	env := newTestEnv(t, Options{})
	opt := core.QueryOptions{Delta: 1, OptBounds: true, Seed: 9}
	want, err := env.fresh.View().QueryTopKCtx(context.Background(), env.qs[0], 3, opt)
	if err != nil {
		t.Fatal(err)
	}
	req := QueryRequest{GraphText: env.qtexts[0], Delta: 1, K: 3, Seed: 9}
	var got TopKResponse
	env.post(t, "/topk", req, &got)
	if len(got.Items) != len(want) {
		t.Fatalf("topk size %d != %d", len(got.Items), len(want))
	}
	for i, it := range want {
		if got.Items[i].Graph != it.Graph || got.Items[i].SSP != it.SSP {
			t.Fatalf("topk[%d] = %+v != %+v", i, got.Items[i], it)
		}
	}
	var again TopKResponse
	env.post(t, "/topk", req, &again)
	if !again.Cached {
		t.Fatal("repeat topk not cached")
	}
}

// TestBatchEndpoint mirrors QueryBatch, including per-member cache slots.
func TestBatchEndpoint(t *testing.T) {
	env := newTestEnv(t, Options{})
	opt := core.QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 21}
	want, err := env.fresh.View().QueryBatchCtx(context.Background(), env.qs, opt)
	if err != nil {
		t.Fatal(err)
	}
	req := BatchRequest{QueryTexts: env.qtexts, Epsilon: 0.4, Delta: 1, Seed: 21}
	var got BatchResponse
	env.post(t, "/batch", req, &got)
	if len(got.Results) != len(want) {
		t.Fatalf("batch size %d != %d", len(got.Results), len(want))
	}
	for i, res := range want {
		wantAnswers := res.Answers
		if wantAnswers == nil {
			wantAnswers = []int{}
		}
		if !reflect.DeepEqual(got.Results[i].Answers, wantAnswers) {
			t.Fatalf("batch[%d]: answers %v != %v", i, got.Results[i].Answers, res.Answers)
		}
		for gi, ssp := range res.SSP {
			if got.Results[i].SSP[gi] != ssp {
				t.Fatalf("batch[%d]: SSP[%d] mismatch", i, gi)
			}
		}
	}

	// A /query with the derived batch seed hits the batch member's entry.
	single := QueryRequest{GraphText: env.qtexts[1], Epsilon: 0.4, Delta: 1,
		Seed: core.BatchSeed(21, 1)}
	var sr QueryResponse
	env.post(t, "/query", single, &sr)
	if !sr.Cached {
		t.Fatal("batch member not reusable by /query with the derived seed")
	}

	// Whole batch again: all members hit.
	var again BatchResponse
	env.post(t, "/batch", req, &again)
	for i, r := range again.Results {
		if !r.Cached {
			t.Fatalf("repeat batch member %d not cached", i)
		}
	}
}

// TestBatchPartialHitDoesNotInflateCounters: a batch probe that finds some
// members cached but not all must re-run everything without counting the
// probed members as cache hits.
func TestBatchPartialHitDoesNotInflateCounters(t *testing.T) {
	env := newTestEnv(t, Options{})
	// Warm member 0's slot via /query with the derived batch seed.
	warm := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1,
		Seed: core.BatchSeed(21, 0)}
	env.post(t, "/query", warm, nil)

	_, before := scrapeMetrics(t, env)

	req := BatchRequest{QueryTexts: env.qtexts, Epsilon: 0.4, Delta: 1, Seed: 21}
	var got BatchResponse
	env.post(t, "/batch", req, &got)
	for i, r := range got.Results {
		if r.Cached {
			t.Fatalf("partial-hit batch member %d wrongly marked cached", i)
		}
	}
	_, after := scrapeMetrics(t, env)
	if after["pg_cache_hits_total"] != before["pg_cache_hits_total"] {
		t.Fatalf("partial-hit probe inflated pg_cache_hits_total: %v -> %v", before["pg_cache_hits_total"], after["pg_cache_hits_total"])
	}
}

// TestAddGraphEndpoint: /graphs extends the database incrementally, purges
// the cache, and matches library AddGraph behavior.
func TestAddGraphEndpoint(t *testing.T) {
	env := newTestEnv(t, Options{})
	// Warm the cache.
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}
	var warm QueryResponse
	env.post(t, "/query", req, &warm)

	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, Organisms: 1,
		Correlated: true, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	pg := extra.Graphs[0]
	if _, _, err := env.fresh.AddGraph(pg); err != nil {
		t.Fatal(err)
	}

	var pgText bytes.Buffer
	if err := dataset.EncodePGraph(&pgText, pg, 0); err != nil {
		t.Fatal(err)
	}
	var ar MutationResponse
	hr := env.post(t, "/graphs", AddGraphRequest{GraphText: pgText.String()}, &ar)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/graphs status %d", hr.StatusCode)
	}
	if ar.Op != "add" || ar.Index != env.fresh.Len()-1 || ar.Graphs != env.fresh.Len() {
		t.Fatalf("add response %+v, want index %d", ar, env.fresh.Len()-1)
	}
	if ar.Generation != env.db.View().Generation {
		t.Fatalf("add response generation %d, want %d", ar.Generation, env.db.View().Generation)
	}

	// The warmed entry is keyed by the pre-insertion generation, so the
	// repeat misses (no purge happened — the old entry is simply
	// unaddressable now) and its fresh result matches the library on the
	// grown database.
	var rerun QueryResponse
	env.post(t, "/query", req, &rerun)
	if rerun.Cached {
		t.Fatal("cache served a pre-insertion result after AddGraph")
	}
	want, err := env.fresh.View().QueryCtx(context.Background(), env.qs[0], core.QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantAnswers := want.Answers
	if wantAnswers == nil {
		wantAnswers = []int{}
	}
	if !reflect.DeepEqual(rerun.Answers, wantAnswers) {
		t.Fatalf("post-add answers %v != library %v", rerun.Answers, want.Answers)
	}

	// Structured-JSON ingestion works too.
	gj := GraphToJSON(pg.G)
	for _, j := range pg.JPTs {
		jj := JPTJSON{P: append([]float64(nil), j.P...)}
		for _, e := range j.Edges {
			jj.Edges = append(jj.Edges, int(e))
		}
		gj.JPTs = append(gj.JPTs, jj)
	}
	var ar2 MutationResponse
	env.post(t, "/graphs", AddGraphRequest{Graph: gj}, &ar2)
	if ar2.Graphs != ar.Graphs+1 {
		t.Fatalf("second add: graphs = %d, want %d", ar2.Graphs, ar.Graphs+1)
	}
}

// TestHealthzAndErrors covers the health probe and the main error paths.
func TestHealthzAndErrors(t *testing.T) {
	env := newTestEnv(t, Options{})
	var hz map[string]any
	env.get(t, "/healthz", &hz)
	if hz["status"] != "ok" || int(hz["graphs"].(float64)) != 10 {
		t.Fatalf("healthz = %v", hz)
	}

	// GET on a POST endpoint.
	hr, err := http.Get(env.ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d", hr.StatusCode)
	}

	// Missing graph.
	hr = env.post(t, "/query", QueryRequest{Epsilon: 0.5, Delta: 1}, nil)
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing graph: status %d", hr.StatusCode)
	}
	// Bad verifier.
	hr = env.post(t, "/query", QueryRequest{GraphText: env.qtexts[0], Verifier: "bogus", Delta: 1}, nil)
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad verifier: status %d", hr.StatusCode)
	}
	// Malformed body.
	resp, err := http.Post(env.ts.URL+"/query", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
}

// TestBadThresholdsAre400 pins the QueryOptions-validation mapping on every
// query endpoint: an out-of-range ε or a negative δ is a malformed request
// (HTTP 400), not an evaluation failure (422), and exact boundary values
// (ε = 1, δ = 0) are accepted.
func TestBadThresholdsAre400(t *testing.T) {
	env := newTestEnv(t, Options{})
	bad := []struct {
		name    string
		epsilon float64
		delta   int
	}{
		{"epsilon above 1", 1.5, 1},
		{"epsilon negative", -0.1, 1},
		{"delta negative", 0.5, -1},
	}
	for _, c := range bad {
		reqs := map[string]any{
			"/query":        QueryRequest{GraphText: env.qtexts[0], Epsilon: c.epsilon, Delta: c.delta},
			"/query/stream": QueryRequest{GraphText: env.qtexts[0], Epsilon: c.epsilon, Delta: c.delta},
			"/topk":         QueryRequest{GraphText: env.qtexts[0], Epsilon: c.epsilon, Delta: c.delta, K: 2},
			"/batch":        BatchRequest{QueryTexts: env.qtexts[:1], Epsilon: c.epsilon, Delta: c.delta},
		}
		for path, req := range reqs {
			// Decode the body as one JSON object: the rejection must be a
			// structured HTTP 400 *before* any evaluation — on the stream
			// endpoint too, where a late rejection would instead surface
			// as an in-band NDJSON error line after a 200 status.
			var body map[string]any
			hr := env.post(t, path, req, &body)
			if hr.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", path, c.name, hr.StatusCode)
			}
			if _, ok := body["error"]; !ok {
				t.Errorf("%s %s: 400 body %v lacks error field", path, c.name, body)
			}
			if _, streamed := body["done"]; streamed {
				t.Errorf("%s %s: rejection arrived as a stream line, not an up-front 400", path, c.name)
			}
		}
	}
	// The boundary itself is valid: ε exactly 1, δ exactly 0.
	var resp QueryResponse
	hr := env.post(t, "/query", QueryRequest{GraphText: env.qtexts[0], Epsilon: 1, Delta: 0}, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("epsilon=1 delta=0: status %d, want 200", hr.StatusCode)
	}
}

// TestMetricsReportStructIndex: a graph added over the wire gets its count
// row — the structural filter keeps the new slot for a query that is the
// graph itself — and /metrics counts it.
func TestMetricsReportStructIndex(t *testing.T) {
	env := newTestEnv(t, Options{})
	_, series := scrapeMetrics(t, env)
	before := int(slots(series))

	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, Organisms: 1,
		Correlated: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pgText bytes.Buffer
	if err := dataset.EncodePGraph(&pgText, extra.Graphs[0], 0); err != nil {
		t.Fatal(err)
	}
	env.post(t, "/graphs", AddGraphRequest{GraphText: pgText.String()}, nil)
	_, series = scrapeMetrics(t, env)
	if got := int(slots(series)); got != before+1 {
		t.Fatalf("pg_db_graphs sums to %d after AddGraph, want %d", got, before+1)
	}
	cand, err := env.db.View().Struct.CandidatesCtx(context.Background(), extra.Graphs[0].G, 0, 1)
	if err != nil || !slices.Contains(cand, before) {
		t.Fatalf("structural filter keeps %v (err %v) for the added graph itself, want slot %d among them", cand, err, before)
	}
}

// TestConcurrentMixedLoad hammers the server from many goroutines —
// queries, repeats, and an AddGraph in the middle — mostly to give the
// race detector something to chew on.
func TestConcurrentMixedLoad(t *testing.T) {
	env := newTestEnv(t, Options{MaxInflight: 4, CacheSize: 8})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				req := QueryRequest{
					GraphText: env.qtexts[(w+i)%len(env.qtexts)],
					Epsilon:   0.4, Delta: 1, Seed: int64(w % 2),
				}
				var resp QueryResponse
				env.post(t, "/query", req, &resp)
			}
		}(w)
	}
	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, Organisms: 1,
		Correlated: true, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	var pgText bytes.Buffer
	if err := dataset.EncodePGraph(&pgText, extra.Graphs[0], 0); err != nil {
		t.Fatal(err)
	}
	env.post(t, "/graphs", AddGraphRequest{GraphText: pgText.String()}, nil)
	wg.Wait()

	_, series := scrapeMetrics(t, env)
	if got := slots(series); got != 11 {
		t.Fatalf("pg_db_graphs sums to %v, want 11", got)
	}
	if got := queriesTotal(series); got != 30 {
		t.Fatalf("pg_queries_total sums to %v, want 30", got)
	}
	if got := series["pg_inflight_queries"]; got != 0 {
		t.Fatalf("pg_inflight_queries = %v, want 0", got)
	}
}

// TestCacheKeyDistinguishesOptions: every result-affecting knob must
// produce a distinct key.
func TestCacheKeyDistinguishesOptions(t *testing.T) {
	base := core.QueryOptions{Epsilon: 0.5, Delta: 1, OptBounds: true, Seed: 1}
	keys := map[string]string{}
	add := func(name, key string) {
		for prev, pk := range keys {
			if pk == key {
				t.Fatalf("cache key collision between %s and %s", prev, name)
			}
		}
		keys[name] = key
	}
	add("base", cacheKey("query", 1, "CODE", base, 0))
	o := base
	o.Epsilon = 0.25
	add("epsilon", cacheKey("query", 1, "CODE", o, 0))
	o = base
	o.Delta = 2
	add("delta", cacheKey("query", 1, "CODE", o, 0))
	o = base
	o.Verifier = core.VerifierExact
	add("verifier", cacheKey("query", 1, "CODE", o, 0))
	o = base
	o.OptBounds = false
	add("bounds", cacheKey("query", 1, "CODE", o, 0))
	o = base
	o.Seed = 2
	add("seed", cacheKey("query", 1, "CODE", o, 0))
	add("code", cacheKey("query", 1, "OTHER", base, 0))
	add("kind", cacheKey("topk", 1, "CODE", base, 0))
	add("k", cacheKey("topk", 1, "CODE", base, 3))
	add("generation", cacheKey("query", 2, "CODE", base, 0))

	// Workers must NOT change the key.
	o = base
	o.Concurrency = 8
	if cacheKey("query", 1, "CODE", o, 0) != keys["base"] {
		t.Fatal("workers changed the cache key")
	}
}
