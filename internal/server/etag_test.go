package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"probgraph/internal/core"
)

// condPost POSTs body to path on ts with If-None-Match set to inm (none
// when empty) and returns the status, the ETag and the body.
func condPost(t *testing.T, ts *httptest.Server, path string, body []byte, inm string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	data, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, hr.Header.Get("ETag"), data
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// etagShape is "<nonce>-<generation>", quoted as RFC 9110 writes a strong
// tag.
var etagShape = regexp.MustCompile(`^"[0-9a-f]+-[0-9]+"$`)

// TestRevalidateMatchingTag304: every tagged read answers 200 with an ETag
// of the current generation; the same request sent back with that tag as
// If-None-Match gets an empty 304 carrying the tag — and so does an
// undecodable body sent with it, so the body is never read. A 304 is
// counted on pg_not_modified_total and not on pg_queries_total.
func TestRevalidateMatchingTag304(t *testing.T) {
	env := newTestEnv(t, Options{})
	bodies := map[string][]byte{
		"query":     mustJSON(t, QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3}),
		"topk":      mustJSON(t, QueryRequest{GraphText: env.qtexts[1], Delta: 1, K: 2, Seed: 3}),
		"topk_walk": mustJSON(t, QueryRequest{GraphText: env.qtexts[1], Delta: 1, K: 2, Seed: 3}),
		"batch":     mustJSON(t, BatchRequest{QueryTexts: env.qtexts, Epsilon: 0.4, Delta: 1, Seed: 3}),
	}
	paths := map[string]string{"query": "/query", "topk": "/topk", "topk_walk": "/topk/walk", "batch": "/batch"}
	var tag string
	for _, ep := range taggedEndpoints {
		st, etag, _ := condPost(t, env.ts, paths[ep], bodies[ep], "")
		if st != http.StatusOK || !etagShape.MatchString(etag) || (tag != "" && etag != tag) {
			t.Fatalf("%s: status %d, ETag %q (want one tag for every read of generation 1, got %q before)", ep, st, etag, tag)
		}
		tag = etag
		for _, body := range [][]byte{bodies[ep], []byte("{not json")} {
			st, etag, data := condPost(t, env.ts, paths[ep], body, tag)
			if st != http.StatusNotModified || etag != tag || len(data) != 0 {
				t.Fatalf("%s revalidated with %q: status %d, ETag %q, body %q; want an empty 304 with the tag", ep, body, st, etag, data)
			}
		}
	}
	_, series := scrapeMetrics(t, env)
	for _, ep := range taggedEndpoints {
		if got := series[`pg_not_modified_total{endpoint="`+ep+`"}`]; got != 2 {
			t.Errorf("pg_not_modified_total{endpoint=%q} = %v, want 2", ep, got)
		}
	}
	if got := queriesTotal(series); got != 6 { // query, topk, topk_walk and the batch's 3 members
		t.Errorf("pg_queries_total sums to %v, want 6: a 304 is not a query", got)
	}
	// Only a POST revalidates: a GET is still refused with 405.
	req, err := http.NewRequest(http.MethodGet, env.ts.URL+"/query", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", tag)
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query with the current tag: status %d, want 405", hr.StatusCode)
	}
}

// TestETagMovesWithMutation: add, remove, replace and a compacting remove
// each move the tag, and a request sent with any earlier tag gets a 200
// carrying the new one.
func TestETagMovesWithMutation(t *testing.T) {
	env := newTestEnv(t, Options{})
	body := mustJSON(t, QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3})
	_, first, _ := condPost(t, env.ts, "/query", body, "")
	seen := []string{first}
	mutate := func(what, method, path string, req any) {
		t.Helper()
		var mr MutationResponse
		if hr := env.send(t, method, path, req, &mr); hr.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", what, hr.StatusCode)
		}
		if what == "compacting remove" && !mr.Compacted {
			t.Fatalf("%s did not compact: %+v", what, mr)
		}
		for _, old := range seen {
			st, etag, _ := condPost(t, env.ts, "/query", body, old)
			if st != http.StatusOK || !etagShape.MatchString(etag) {
				t.Fatalf("after %s, tag %s: status %d, ETag %q; want a 200 with the new tag", what, old, st, etag)
			}
			for _, o := range seen {
				if etag == o {
					t.Fatalf("after %s the tag is still %s", what, etag)
				}
			}
			if old == seen[len(seen)-1] {
				seen = append(seen, etag)
			}
		}
	}
	mutate("add", http.MethodPost, "/graphs", AddGraphRequest{GraphText: pgraphText(t, 818)})
	mutate("remove", http.MethodDelete, "/graphs/0", nil)
	mutate("replace", http.MethodPut, "/graphs/2", AddGraphRequest{GraphText: pgraphText(t, 819)})
	env.db.SetCompactThreshold(0.15)
	mutate("compacting remove", http.MethodDelete, "/graphs/1", nil)
	if len(seen) != 5 {
		t.Fatalf("saw %d tags, want 5", len(seen))
	}
}

// TestETagDiffersAcrossServers: two servers opened over the same snapshot
// stand at the same generation but tag differently, so neither revalidates
// the other's reply — a shard re-cut and restarted at the generation it
// served before is not mistaken for the old process.
func TestETagDiffersAcrossServers(t *testing.T) {
	env := newTestEnv(t, Options{})
	var snap bytes.Buffer
	if err := env.db.View().SaveAs(&snap, core.SnapshotText); err != nil {
		t.Fatal(err)
	}
	reloaded, err := core.LoadDatabase(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.View().Generation != env.db.View().Generation {
		t.Fatalf("reloaded at generation %d, want %d", reloaded.View().Generation, env.db.View().Generation)
	}
	other := httptest.NewServer(New(reloaded, Options{}).Handler())
	defer other.Close()
	body := mustJSON(t, QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3})
	_, a, _ := condPost(t, env.ts, "/query", body, "")
	_, b, _ := condPost(t, other, "/query", body, "")
	if a == b || !etagShape.MatchString(a) || !etagShape.MatchString(b) {
		t.Fatalf("two servers at one generation tag %q and %q", a, b)
	}
	if st, etag, _ := condPost(t, other, "/query", body, a); st != http.StatusOK || etag != b {
		t.Fatalf("the other server's tag: status %d, ETag %q; want 200 with %q", st, etag, b)
	}
}

// TestNoETagWithoutCache: a server whose result cache is off tags nothing
// and answers every request, If-None-Match or not.
func TestNoETagWithoutCache(t *testing.T) {
	env := newTestEnv(t, Options{CacheSize: -1})
	body := mustJSON(t, QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3})
	for _, inm := range []string{"", `"0-1"`} {
		if st, etag, _ := condPost(t, env.ts, "/query", body, inm); st != http.StatusOK || etag != "" {
			t.Fatalf("If-None-Match %q: status %d, ETag %q; want 200 and no tag", inm, st, etag)
		}
	}
}

// TestClientPostIfNoneMatch: PostIfNoneMatch returns a 200's ETag, and a
// 304 to the tag it sends as "not modified" with out untouched — over HTTP
// and through NewHandlerClient alike. A 304 the client did not ask for is
// an error, never an empty answer.
func TestClientPostIfNoneMatch(t *testing.T) {
	env := newTestEnv(t, Options{})
	ctx := context.Background()
	body := mustJSON(t, QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3})
	for _, c := range []*Client{NewClient(env.ts.URL), NewHandlerClient(env.srv.Handler())} {
		var first QueryResponse
		tag, nm, err := c.PostIfNoneMatch(ctx, "/query", body, "", &first)
		if err != nil || nm || !etagShape.MatchString(tag) || first.Generation != 1 {
			t.Fatalf("%s: unconditional: tag %q, not modified %t, generation %d, err %v", c.URL(), tag, nm, first.Generation, err)
		}
		var again QueryResponse
		etag, nm, err := c.PostIfNoneMatch(ctx, "/query", body, tag, &again)
		if err != nil || !nm || etag != tag || again.Answers != nil {
			t.Fatalf("%s: revalidation: tag %q, not modified %t, err %v, out %+v", c.URL(), etag, nm, err, again)
		}
	}
	unasked := NewHandlerClient(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotModified)
	}))
	var out QueryResponse
	if err := unasked.Post(ctx, "/query", body, &out); err == nil {
		t.Fatal("an unconditional Post accepted a 304")
	}
}
