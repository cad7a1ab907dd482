package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"probgraph/internal/core"
)

// postWalk sends a /topk/walk request and returns the decoded reply and
// its bytes with the time fields blanked.
func postWalk(t *testing.T, env *testEnv, req QueryRequest) (TopKWalkResponse, string) {
	t.Helper()
	var raw json.RawMessage
	if hr := env.post(t, "/topk/walk", req, &raw); hr.StatusCode != http.StatusOK {
		t.Fatalf("/topk/walk: status %d: %s", hr.StatusCode, raw)
	}
	var resp TopKWalkResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp, zeroed(raw)
}

// TestTopKWalkCached: a repeated /topk/walk is a cache hit whose bytes
// are the first reply's, time fields and the cached flag aside, and the
// walk is the library's.
func TestTopKWalkCached(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Delta: 1, K: 3, Seed: 9}
	first, b1 := postWalk(t, env, req)
	_, before := scrapeMetrics(t, env)
	again, b2 := postWalk(t, env, req)
	_, after := scrapeMetrics(t, env)
	if first.Cached || !again.Cached {
		t.Fatalf("cached = (%t, %t), want (false, true)", first.Cached, again.Cached)
	}
	if d := after["pg_cache_hits_total"] - before["pg_cache_hits_total"]; d != 1 {
		t.Fatalf("repeat walk: pg_cache_hits_total rose by %v, want 1", d)
	}
	if b2 = strings.Replace(b2, `"cached":true`, `"cached":false`, 1); b1 != b2 {
		t.Fatalf("repeat walk differs:\n%s\n%s", b1, b2)
	}

	want, err := env.fresh.View().QueryTopKWalk(context.Background(), env.qs[0], 3,
		core.QueryOptions{Delta: 1, OptBounds: true, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	entries := len(want.Steps)
	if want.Stop != nil {
		entries++
	}
	if len(first.Walk) != entries || len(want.Steps) == 0 {
		t.Fatalf("walk has %d entries, library %d steps (stop %v)", len(first.Walk), len(want.Steps), want.Stop)
	}
	for i, s := range want.Steps {
		if e := first.Walk[i]; e.Graph != s.Graph || e.Upper != s.Upper || e.SSP == nil || *e.SSP != s.SSP {
			t.Fatalf("walk[%d] = %+v, library %+v", i, e, s)
		}
	}
}

// TestTopKAndWalkShareEntry: /topk and /topk/walk of one key are one
// cache entry, warmed by either endpoint.
func TestTopKAndWalkShareEntry(t *testing.T) {
	env := newTestEnv(t, Options{})
	for i, topkFirst := range []bool{true, false} {
		req := QueryRequest{GraphText: env.qtexts[i], Delta: 1, K: 3, Seed: 9}
		_, before := scrapeMetrics(t, env)
		var top TopKResponse
		var walk TopKWalkResponse
		if topkFirst {
			env.post(t, "/topk", req, &top)
			walk, _ = postWalk(t, env, req)
			if top.Cached || !walk.Cached {
				t.Fatalf("/topk then /topk/walk: cached = (%t, %t), want (false, true)", top.Cached, walk.Cached)
			}
		} else {
			walk, _ = postWalk(t, env, req)
			env.post(t, "/topk", req, &top)
			if walk.Cached || !top.Cached {
				t.Fatalf("/topk/walk then /topk: cached = (%t, %t), want (false, true)", walk.Cached, top.Cached)
			}
		}
		_, after := scrapeMetrics(t, env)
		if d := after["pg_cache_entries"] - before["pg_cache_entries"]; d != 1 {
			t.Fatalf("topkFirst=%t: pg_cache_entries rose by %v, want 1", topkFirst, d)
		}
		// The ranking read from the shared entry is the uncached one.
		req.NoCache = true
		var fresh TopKResponse
		env.post(t, "/topk", req, &fresh)
		if len(top.Items) == 0 || !slices.Equal(top.Items, fresh.Items) {
			t.Fatalf("topkFirst=%t: ranking %v, uncached %v", topkFirst, top.Items, fresh.Items)
		}
	}
}

// TestTopKWalkNoCache: a no_cache walk neither reads nor writes the cache.
func TestTopKWalkNoCache(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Delta: 1, K: 3, Seed: 9, NoCache: true}
	postWalk(t, env, req)
	_, st := scrapeMetrics(t, env)
	if st["pg_cache_entries"] != 0 || st["pg_cache_hits_total"] != 0 || st["pg_cache_misses_total"] != 0 {
		t.Fatalf("no_cache walk touched the cache: entries %v hits %v misses %v",
			st["pg_cache_entries"], st["pg_cache_hits_total"], st["pg_cache_misses_total"])
	}
	req.NoCache = false
	postWalk(t, env, req) // stored now
	req.NoCache = true
	if w, _ := postWalk(t, env, req); w.Cached {
		t.Fatal("no_cache walk served from cache")
	}
	if _, st := scrapeMetrics(t, env); st["pg_cache_hits_total"] != 0 || st["pg_cache_entries"] != 1 {
		t.Fatalf("no_cache walk over a stored entry: hits %v entries %v", st["pg_cache_hits_total"], st["pg_cache_entries"])
	}
}

// TestTopKWalkTimeoutNotCached: a walk whose timeout_ms expires answers
// 504 and stores nothing. The one inflight slot is held until the
// request's deadline has passed, so the walk starts already expired.
func TestTopKWalkTimeoutNotCached(t *testing.T) {
	env := newTestEnv(t, Options{MaxInflight: 1})
	l := env.srv.b.(*local)
	release := l.acquire()
	req := QueryRequest{GraphText: env.qtexts[0], Delta: 1, K: 3, Seed: 9, TimeoutMS: 1}
	status := make(chan int)
	go func() {
		body, _ := json.Marshal(req)
		hr, err := http.Post(env.ts.URL+"/topk/walk", "application/json", bytes.NewReader(body))
		if err != nil {
			status <- 0
			return
		}
		hr.Body.Close()
		status <- hr.StatusCode
	}()
	for l.inflight.Load() < 2 { // the walk waits on the slot, its deadline running
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	release()
	if st := <-status; st != http.StatusGatewayTimeout {
		t.Fatalf("expired walk: status %d, want 504", st)
	}
	if _, st := scrapeMetrics(t, env); st["pg_cache_entries"] != 0 {
		t.Fatalf("timed-out walk stored %v cache entries", st["pg_cache_entries"])
	}
	req.TimeoutMS = 0
	if w, _ := postWalk(t, env, req); w.Cached {
		t.Fatal("walk after a timed-out one served from cache")
	}
}

// TestTopKWalkMissAfterMutation: a mutation makes the next walk a miss at
// the new generation, then a hit there.
func TestTopKWalkMissAfterMutation(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Delta: 1, K: 3, Seed: 9}
	postWalk(t, env, req)
	if w, _ := postWalk(t, env, req); !w.Cached || w.Generation != 1 {
		t.Fatalf("warm walk: cached %t at generation %d, want a hit at 1", w.Cached, w.Generation)
	}
	var mr MutationResponse
	env.post(t, "/graphs", AddGraphRequest{GraphText: pgraphText(t, 515)}, &mr)
	if mr.Generation != 2 {
		t.Fatalf("add produced generation %d, want 2", mr.Generation)
	}
	w3, _ := postWalk(t, env, req)
	w4, _ := postWalk(t, env, req)
	if w3.Cached || !w4.Cached || w3.Generation != 2 || w4.Generation != 2 {
		t.Fatalf("post-mutation walks: (cached %t, gen %d), (cached %t, gen %d), want a miss then a hit at 2",
			w3.Cached, w3.Generation, w4.Cached, w4.Generation)
	}
	_, st := scrapeMetrics(t, env)
	if h, m := st[`pg_cache_generation_hits_total{generation="2"}`], st[`pg_cache_generation_misses_total{generation="2"}`]; h != 1 || m != 1 {
		t.Fatalf("generation 2 counters %v hits / %v misses, want 1 / 1", h, m)
	}
}
