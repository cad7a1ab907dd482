package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
)

// send issues a JSON request with an arbitrary method.
func (env *testEnv) send(t *testing.T, method, path string, req any, resp any) *http.Response {
	t.Helper()
	var body bytes.Buffer
	if req != nil {
		if err := json.NewEncoder(&body).Encode(req); err != nil {
			t.Fatal(err)
		}
	}
	hreq, err := http.NewRequest(method, env.ts.URL+path, &body)
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hr, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if resp != nil {
		if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, path, err)
		}
	}
	return hr
}

// pgraphText renders one generated probabilistic graph in the text codec.
func pgraphText(t *testing.T, seed int64) string {
	t.Helper()
	extra, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 1, MinVertices: 5, MaxVertices: 6, Organisms: 1,
		Correlated: true, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dataset.EncodePGraph(&buf, extra.Graphs[0], 0); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRemoveAndReplaceEndpoints: DELETE and PUT /graphs/{id} mutate the
// database through the generation API — tombstoned graphs leave the
// answers with indices stable, replacement swaps a slot in place, and the
// error paths map to 400/404.
func TestRemoveAndReplaceEndpoints(t *testing.T) {
	env := newTestEnv(t, Options{})

	// Baseline query; pick a victim from its answers so removal is visible.
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.3, Delta: 1, Seed: 3}
	var base QueryResponse
	env.post(t, "/query", req, &base)
	if len(base.Answers) == 0 {
		t.Skip("baseline query has no answers")
	}
	victim := base.Answers[0]

	var mr MutationResponse
	hr := env.send(t, http.MethodDelete, fmt.Sprintf("/graphs/%d", victim), nil, &mr)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", hr.StatusCode)
	}
	if mr.Op != "remove" || mr.Index != victim || mr.Tombstoned != 1 || mr.Generation != base.Generation+1 {
		t.Fatalf("remove response %+v", mr)
	}

	var after QueryResponse
	env.post(t, "/query", req, &after)
	if after.Cached {
		t.Fatal("post-removal query served from a stale generation's cache entry")
	}
	if after.Generation != mr.Generation {
		t.Fatalf("post-removal generation %d, want %d", after.Generation, mr.Generation)
	}
	want := make([]int, 0, len(base.Answers)-1)
	for _, gi := range base.Answers {
		if gi != victim {
			want = append(want, gi)
		}
	}
	if !reflect.DeepEqual(after.Answers, want) {
		t.Fatalf("post-removal answers %v, want %v (indices must be stable)", after.Answers, want)
	}

	// Error paths: double delete and unknown slots are 404, junk ids 400.
	if hr := env.send(t, http.MethodDelete, fmt.Sprintf("/graphs/%d", victim), nil, nil); hr.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE status %d, want 404", hr.StatusCode)
	}
	if hr := env.send(t, http.MethodDelete, "/graphs/999", nil, nil); hr.StatusCode != http.StatusNotFound {
		t.Fatalf("out-of-range DELETE status %d, want 404", hr.StatusCode)
	}
	if hr := env.send(t, http.MethodDelete, "/graphs/junk", nil, nil); hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk id DELETE status %d, want 400", hr.StatusCode)
	}

	// Replace a surviving slot; the server must agree with the library
	// run against the same mutated state.
	target := want[0]
	text := pgraphText(t, 4242)
	var rr MutationResponse
	hr = env.send(t, http.MethodPut, fmt.Sprintf("/graphs/%d", target), AddGraphRequest{GraphText: text}, &rr)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("PUT status %d", hr.StatusCode)
	}
	if rr.Op != "replace" || rr.Index != target || rr.Generation != mr.Generation+1 {
		t.Fatalf("replace response %+v", rr)
	}
	if hr := env.send(t, http.MethodPut, fmt.Sprintf("/graphs/%d", victim), AddGraphRequest{GraphText: text}, nil); hr.StatusCode != http.StatusNotFound {
		t.Fatalf("PUT on tombstoned slot status %d, want 404", hr.StatusCode)
	}

	// The server's post-mutation result equals the library's on an
	// equally mutated database.
	lib := env.fresh
	if _, err := lib.RemoveGraph(victim); err != nil {
		t.Fatal(err)
	}
	pg, err := parsePGraphPayload(nil, text)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lib.ReplaceGraph(target, pg); err != nil {
		t.Fatal(err)
	}
	wantRes, err := lib.View().QueryCtx(context.Background(), env.qs[0], core.QueryOptions{Epsilon: 0.3, Delta: 1, OptBounds: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var final QueryResponse
	env.post(t, "/query", req, &final)
	wantAnswers := wantRes.Answers
	if wantAnswers == nil {
		wantAnswers = []int{}
	}
	if !reflect.DeepEqual(final.Answers, wantAnswers) || !reflect.DeepEqual(final.SSP, wantRes.SSP) {
		t.Fatalf("post-replace: server %v %v != library %v %v",
			final.Answers, final.SSP, wantRes.Answers, wantRes.SSP)
	}
}

// TestGenerationKeyedCache: mutation does not purge the cache — it makes
// stale entries unaddressable. Stats report generation, live/tombstoned
// counts, and per-generation hit/miss counters.
func TestGenerationKeyedCache(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 5}

	var r1, r2 QueryResponse
	env.post(t, "/query", req, &r1) // miss at gen 1
	env.post(t, "/query", req, &r2) // hit at gen 1
	if r1.Cached || !r2.Cached {
		t.Fatalf("warmup: cached = (%t, %t), want (false, true)", r1.Cached, r2.Cached)
	}

	var st StatsResponse
	env.get(t, "/stats", &st)
	if st.Generation != 1 || st.LiveGraphs != 10 || st.TombstonedGraphs != 0 {
		t.Fatalf("pre-mutation stats: gen=%d live=%d tomb=%d", st.Generation, st.LiveGraphs, st.TombstonedGraphs)
	}
	g1 := st.CacheGenerations["1"]
	if g1.Hits != 1 || g1.Misses != 1 {
		t.Fatalf("generation 1 counters %+v, want 1 hit / 1 miss", g1)
	}
	entriesBefore := st.CacheEntries
	if entriesBefore == 0 {
		t.Fatal("no cache entries after a warmed query")
	}

	// Mutate: the entry must not be served again, but also must not be
	// purged — it is still there, keyed by the old generation.
	var mr MutationResponse
	env.post(t, "/graphs", AddGraphRequest{GraphText: pgraphText(t, 515)}, &mr)
	if mr.Generation != 2 {
		t.Fatalf("add produced generation %d, want 2", mr.Generation)
	}
	env.get(t, "/stats", &st)
	if st.CacheEntries != entriesBefore {
		t.Fatalf("mutation changed cache entries %d -> %d (purge is gone by design)", entriesBefore, st.CacheEntries)
	}

	var r3, r4 QueryResponse
	env.post(t, "/query", req, &r3) // miss at gen 2 (recomputed)
	env.post(t, "/query", req, &r4) // hit at gen 2
	if r3.Cached || !r4.Cached {
		t.Fatalf("post-mutation: cached = (%t, %t), want (false, true)", r3.Cached, r4.Cached)
	}
	if r3.Generation != 2 || r4.Generation != 2 {
		t.Fatalf("post-mutation generations (%d, %d), want 2", r3.Generation, r4.Generation)
	}

	env.get(t, "/stats", &st)
	g2 := st.CacheGenerations["2"]
	if g2.Hits != 1 || g2.Misses != 1 {
		t.Fatalf("generation 2 counters %+v, want 1 hit / 1 miss", g2)
	}
	if st.CacheEntries != entriesBefore+1 {
		t.Fatalf("cache entries %d, want %d (old + new generation's)", st.CacheEntries, entriesBefore+1)
	}

	// Remove: stats flip to tombstoned, healthz reports live count.
	var rm MutationResponse
	env.send(t, http.MethodDelete, "/graphs/0", nil, &rm)
	env.get(t, "/stats", &st)
	if st.Generation != 3 || st.LiveGraphs != 10 || st.TombstonedGraphs != 1 || st.Graphs != 11 {
		t.Fatalf("post-remove stats: %+v", st)
	}
	var hz map[string]any
	env.get(t, "/healthz", &hz)
	if int(hz["graphs"].(float64)) != 10 || uint64(hz["generation"].(float64)) != 3 {
		t.Fatalf("healthz = %v", hz)
	}
}

// TestMutationLogHook: every committed mutation produces exactly one
// event carrying the old→new generation transition.
func TestMutationLogHook(t *testing.T) {
	var events []MutationEvent
	env := newTestEnv(t, Options{MutationLog: func(ev MutationEvent) {
		events = append(events, ev)
	}})

	env.post(t, "/graphs", AddGraphRequest{GraphText: pgraphText(t, 616)}, nil)
	env.send(t, http.MethodDelete, "/graphs/3", nil, nil)
	env.send(t, http.MethodPut, "/graphs/4", AddGraphRequest{GraphText: pgraphText(t, 617)}, nil)
	// Failed mutations must not log.
	env.send(t, http.MethodDelete, "/graphs/3", nil, nil)

	wantOps := []string{"add", "remove", "replace"}
	if len(events) != len(wantOps) {
		t.Fatalf("logged %d events, want %d: %+v", len(events), len(wantOps), events)
	}
	for i, ev := range events {
		if ev.Op != wantOps[i] {
			t.Fatalf("event %d op %q, want %q", i, ev.Op, wantOps[i])
		}
		if ev.NewGeneration != ev.OldGeneration+1 {
			t.Fatalf("event %d generations %d -> %d, want +1", i, ev.OldGeneration, ev.NewGeneration)
		}
		if ev.NewGeneration != uint64(i)+2 {
			t.Fatalf("event %d new generation %d, want %d", i, ev.NewGeneration, i+2)
		}
	}
	if events[1].Tombstoned != 1 || events[1].LiveGraphs != 10 {
		t.Fatalf("remove event shape %+v", events[1])
	}
}
