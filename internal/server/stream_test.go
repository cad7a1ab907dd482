package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// streamLines POSTs to /query/stream and returns the parsed NDJSON lines.
func streamLines(t *testing.T, env *testEnv, req QueryRequest) []map[string]any {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(env.ts.URL+"/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/query/stream status %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("/query/stream content type %q", ct)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(hr.Body)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestQueryStreamEndpointMatchesQuery: the stream's match lines and final
// summary must agree bitwise with /query on the same request — same
// answers, same SSP estimates — with exactly one summary line, last.
func TestQueryStreamEndpointMatchesQuery(t *testing.T) {
	env := newTestEnv(t, Options{})
	for i := range env.qs {
		req := QueryRequest{GraphText: env.qtexts[i], Epsilon: 0.4, Delta: 1, Seed: int64(7 + i)}
		var want QueryResponse
		env.post(t, "/query", req, &want)

		lines := streamLines(t, env, req)
		if len(lines) == 0 {
			t.Fatalf("query %d: empty stream", i)
		}
		summary := lines[len(lines)-1]
		if summary["done"] != true {
			t.Fatalf("query %d: last line is not the summary: %v", i, summary)
		}
		for j, ln := range lines[:len(lines)-1] {
			if _, ok := ln["done"]; ok {
				t.Fatalf("query %d: summary line %d is not last", i, j)
			}
		}

		// Summary answers ≡ /query answers (both ascending).
		var sumAnswers []int
		for _, v := range summary["answers"].([]any) {
			sumAnswers = append(sumAnswers, int(v.(float64)))
		}
		if sumAnswers == nil {
			sumAnswers = []int{}
		}
		if !reflect.DeepEqual(sumAnswers, want.Answers) {
			t.Fatalf("query %d: stream summary answers %v != /query %v", i, sumAnswers, want.Answers)
		}
		if int(summary["count"].(float64)) != len(want.Answers) {
			t.Fatalf("query %d: summary count %v != %d", i, summary["count"], len(want.Answers))
		}

		// Every match line is a /query answer with the identical SSP; the
		// lines cover the answer set exactly once.
		seen := map[int]bool{}
		for _, ln := range lines[:len(lines)-1] {
			gi := int(ln["graph"].(float64))
			if seen[gi] {
				t.Fatalf("query %d: graph %d streamed twice", i, gi)
			}
			seen[gi] = true
			wssp, ok := want.SSP[gi]
			if !ok {
				// /query omits SSP entries only for direct accepts encoded
				// as -1? No: direct accepts are -1 entries. A missing key
				// means the stream yielded a non-answer.
				t.Fatalf("query %d: stream yielded graph %d absent from /query SSP", i, gi)
			}
			if ln["ssp"].(float64) != wssp {
				t.Fatalf("query %d: SSP[%d] = %v != /query %v", i, gi, ln["ssp"], wssp)
			}
		}
		if len(seen) != len(want.Answers) {
			t.Fatalf("query %d: %d match lines, want %d", i, len(seen), len(want.Answers))
		}
	}
}

// TestStreamTraceInSummary: /query/stream honours trace like the other
// query endpoints — asked for by the body field or the trace=1 knob, the
// summary line carries the span tree rooted at "stream"; otherwise it
// has no trace key, so untraced stream bytes are unchanged. Tracing never
// changes the answers.
func TestStreamTraceInSummary(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.3, Delta: 2, Seed: 3}
	plain := streamLines(t, env, req)
	if _, ok := plain[len(plain)-1]["trace"]; ok {
		t.Fatalf("untraced summary carries a trace: %v", plain[len(plain)-1])
	}
	c := NewClient(env.ts.URL)
	for _, v := range []struct {
		path  string
		trace bool
	}{{"/query/stream", true}, {"/query/stream?trace=1", false}} {
		r := req
		r.Trace = v.trace
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := c.Stream(context.Background(), v.path, body, func(StreamMatchJSON, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		if sum.Trace == nil || sum.Trace.Name != "stream" {
			t.Fatalf("%s trace=%t: summary trace %+v, want a tree rooted at stream", v.path, v.trace, sum.Trace)
		}
		want := []int{}
		for _, a := range plain[len(plain)-1]["answers"].([]any) {
			want = append(want, int(a.(float64)))
		}
		if !reflect.DeepEqual(sum.Answers, want) {
			t.Fatalf("%s: traced answers %v != untraced %v", v.path, sum.Answers, want)
		}
	}
}

// expiredRequest builds a direct (in-process) request whose context's
// deadline has already passed — the deterministic way to exercise the
// deadline path without racing a real query's duration.
func expiredRequest(t *testing.T, path string, payload any) *http.Request {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	t.Cleanup(cancel)
	return req.WithContext(ctx)
}

// TestDeadlineExpiry504: /query, /topk, and /batch answer an expired
// deadline with a structured 504 JSON body ({"error": ..., "timeout":
// true}) — never a hung connection — and the dead query must not have
// populated the result cache.
func TestDeadlineExpiry504(t *testing.T) {
	env := newTestEnv(t, Options{})
	cases := []struct {
		path    string
		payload any
	}{
		{"/query", QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}},
		{"/topk", QueryRequest{GraphText: env.qtexts[0], Delta: 1, K: 2, Seed: 3}},
		{"/batch", BatchRequest{QueryTexts: env.qtexts, Epsilon: 0.4, Delta: 1, Seed: 3}},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		env.srv.Handler().ServeHTTP(rec, expiredRequest(t, c.path, c.payload))
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504", c.path, rec.Code)
		}
		var e struct {
			Error   string `json:"error"`
			Timeout bool   `json:"timeout"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: 504 body not JSON: %v (%q)", c.path, err, rec.Body.String())
		}
		if !e.Timeout || e.Error == "" {
			t.Fatalf("%s: 504 body %+v lacks timeout marker", c.path, e)
		}
	}

	// The timed-out /query attempt must not have poisoned the cache: the
	// same request over the network misses (Cached == false) and succeeds.
	var fresh QueryResponse
	hr := env.post(t, "/query", QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}, &fresh)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout query status %d", hr.StatusCode)
	}
	if fresh.Cached {
		t.Fatal("timed-out query populated the result cache")
	}
}

// TestCancelledRequestIs503: plain cancellation (client disconnect or
// server shutdown, not a deadline) maps to a structured 503 with
// "cancelled": true — visible to a still-attached client during graceful
// shutdown, harmlessly unwritable when the client is gone.
func TestCancelledRequestIs503(t *testing.T) {
	env := newTestEnv(t, Options{})
	body, err := json.Marshal(QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	env.srv.Handler().ServeHTTP(rec, req.WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	var e struct {
		Error     string `json:"error"`
		Cancelled bool   `json:"cancelled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("503 body not JSON: %v (%q)", err, rec.Body.String())
	}
	if !e.Cancelled || e.Error == "" {
		t.Fatalf("503 body %+v lacks cancelled marker", e)
	}
	// And it never reached the cache.
	var fresh QueryResponse
	env.post(t, "/query", QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}, &fresh)
	if fresh.Cached {
		t.Fatal("cancelled query populated the result cache")
	}
}

// TestStreamDeadlineEndsWithErrorLine: a stream whose deadline has already
// passed ends with a single NDJSON error line marked timeout (the HTTP
// status is committed before evaluation, so the verdict rides in-band).
func TestStreamDeadlineEndsWithErrorLine(t *testing.T) {
	env := newTestEnv(t, Options{})
	rec := httptest.NewRecorder()
	env.srv.Handler().ServeHTTP(rec, expiredRequest(t, "/query/stream",
		QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d, want 200 (error rides in-band)", rec.Code)
	}
	var e StreamErrorJSON
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &e); err != nil {
		t.Fatalf("stream error line not JSON: %v (%q)", err, rec.Body.String())
	}
	if !e.Timeout || e.Error == "" {
		t.Fatalf("stream error line %+v lacks timeout marker", e)
	}
}

// TestStreamCancellationEndsWithCancelledLine: plain cancellation (server
// shutdown with the client attached) ends the stream with an in-band
// cancelled marker — the NDJSON analogue of the non-stream 503 — never a
// silent EOF indistinguishable from a network cut.
func TestStreamCancellationEndsWithCancelledLine(t *testing.T) {
	env := newTestEnv(t, Options{})
	body, err := json.Marshal(QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/query/stream", bytes.NewReader(body))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	env.srv.Handler().ServeHTTP(rec, req.WithContext(ctx))
	var e StreamErrorJSON
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &e); err != nil {
		t.Fatalf("cancelled stream body not a single JSON line: %v (%q)", err, rec.Body.String())
	}
	if !e.Cancelled || e.Timeout || e.Error == "" {
		t.Fatalf("cancelled stream line %+v lacks cancelled marker", e)
	}
}

// TestTimeoutKnobPlumbing: a generous timeout_ms changes nothing (the
// request completes well inside it), the server-wide default deadline
// bounds a request that sets none, and a request's timeout_ms overrides
// that default.
func TestTimeoutKnobPlumbing(t *testing.T) {
	env := newTestEnv(t, Options{Timeout: 30 * time.Second})
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3, TimeoutMS: 60000}
	var resp QueryResponse
	hr := env.post(t, "/query", req, &resp)
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("status %d", hr.StatusCode)
	}

	// The same query without the knob hits the cache entry the bounded run
	// wrote — deadlines are not part of the cache key (they are not
	// result-affecting).
	var again QueryResponse
	env.post(t, "/query", QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}, &again)
	if !again.Cached {
		t.Fatal("timeout_ms leaked into the cache key")
	}

	tiny := newTestEnv(t, Options{Timeout: time.Nanosecond})
	bare := QueryRequest{GraphText: tiny.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}
	if hr := tiny.post(t, "/query", bare, nil); hr.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("no timeout_ms under a 1ns default deadline: status %d, want 504", hr.StatusCode)
	}
	bare.TimeoutMS = 60000
	if hr := tiny.post(t, "/query", bare, nil); hr.StatusCode != http.StatusOK {
		t.Fatalf("timeout_ms over a 1ns default deadline: status %d, want 200", hr.StatusCode)
	}
}

// TestStreamDoesNotTouchCache: streams bypass the result cache in both
// directions — they neither write entries nor consume hits.
func TestStreamDoesNotTouchCache(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}
	streamLines(t, env, req)
	if _, series := scrapeMetrics(t, env); series["pg_cache_entries"] != 0 {
		t.Fatalf("stream wrote %v cache entries", series["pg_cache_entries"])
	}
	// Warm via /query, then stream again: still no hit recorded.
	env.post(t, "/query", req, nil)
	_, before := scrapeMetrics(t, env)
	streamLines(t, env, req)
	_, after := scrapeMetrics(t, env)
	if after["pg_cache_hits_total"] != before["pg_cache_hits_total"] {
		t.Fatalf("stream consumed a cache hit: %v -> %v", before["pg_cache_hits_total"], after["pg_cache_hits_total"])
	}
}

// TestStreamRejectsBadRequests mirrors the /query 400 paths.
func TestStreamRejectsBadRequests(t *testing.T) {
	env := newTestEnv(t, Options{})
	cases := []QueryRequest{
		{Epsilon: 0.4, Delta: 1},                                // no graph
		{GraphText: env.qtexts[0], Epsilon: 1.5, Delta: 1},      // bad ε
		{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: -1},     // bad δ
		{GraphText: env.qtexts[0], Delta: 1, K: 2},              // k on stream
		{GraphText: env.qtexts[0], Delta: 1, Verifier: "bogus"}, // bad verifier
		{GraphText: env.qtexts[0], Delta: 1, TimeoutMS: -100},   // bad timeout
	}
	for i, req := range cases {
		hr := env.post(t, "/query/stream", req, nil)
		if hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("case %d (%s): status %d, want 400", i, strconv.Itoa(i), hr.StatusCode)
		}
	}

	// Negative timeout_ms is malformed on every query endpoint, not just
	// the stream — same 400 mapping as out-of-range ε/δ.
	bad := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, TimeoutMS: -1}
	for _, path := range []string{"/query", "/topk"} {
		req := bad
		if path == "/topk" {
			req.K = 2
		}
		if hr := env.post(t, path, req, nil); hr.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s negative timeout_ms: status %d, want 400", path, hr.StatusCode)
		}
	}
	breq := BatchRequest{QueryTexts: env.qtexts[:1], Epsilon: 0.4, Delta: 1, TimeoutMS: -1}
	if hr := env.post(t, "/batch", breq, nil); hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("/batch negative timeout_ms: status %d, want 400", hr.StatusCode)
	}
}
