package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"probgraph/internal/cluster"
	"probgraph/internal/server"
)

// do sends one raw request to h and decodes the answer as a JSON object.
func do(t *testing.T, h http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	rec := serve(h, method, path, body)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: body %q is not a JSON object: %v", method, path, rec.Body, err)
	}
	return rec.Code, out
}

// TestEnvelopeParity: pgserve and pgproxy run one request prologue, so a
// malformed request is refused with the same status and the same error
// body whichever of them receives it — before any shard is asked.
func TestEnvelopeParity(t *testing.T) {
	single := server.New(testDatabase(t, 3, 6), server.Options{}).Handler()
	// Shards that answer every path 404: a rejection must not need the fleet.
	coord := coordOver(t, hostileShard{}, hostileShard{})

	const g = `"graph":{"vertices":["a","b"],"edges":[{"u":0,"v":1,"label":"x"}]}`
	query := []string{"/query", "/query/stream", "/topk"}
	cases := []struct {
		name, method, body string
		paths              []string
		status             int
	}{
		{"bad JSON", "POST", `{`, append(query, "/batch"), 400},
		{"unknown field", "POST", `{` + g + `,"k":1,"bogus":1}`, append(query, "/batch"), 400},
		{"GET", "GET", ``, append(query, "/batch"), 405},
		{"missing graph", "POST", `{"k":1}`, []string{"/query", "/topk"}, 400},
		{"bad verifier", "POST", `{` + g + `,"verifier":"bogus"}`, []string{"/query", "/query/stream"}, 400},
		{"epsilon out of range", "POST", `{` + g + `,"epsilon":1.5}`, []string{"/query", "/query/stream"}, 400},
		{"negative delta", "POST", `{` + g + `,"delta":-1}`, []string{"/query", "/query/stream"}, 400},
		{"negative timeout_ms", "POST", `{` + g + `,"timeout_ms":-5}`, []string{"/query", "/query/stream"}, 400},
		{"topk options checked after k", "POST", `{` + g + `,"k":2,"epsilon":-1}`, []string{"/topk"}, 400},
		{"k <= 0 on /topk", "POST", `{` + g + `}`, []string{"/topk"}, 400},
		{"k on /query/stream", "POST", `{` + g + `,"k":3}`, []string{"/query/stream"}, 400},
		{"empty batch", "POST", `{"epsilon":0.5}`, []string{"/batch"}, 400},
		{"both batch payloads", "POST", `{"queries":[{"vertices":["a"],"edges":[]}],"query_texts":["x"]}`, []string{"/batch"}, 400},
		{"bad batch member", "POST", `{"queries":[{"vertices":["a"],"edges":[{"u":0,"v":5}]}]}`, []string{"/batch"}, 400},
		{"batch negative delta", "POST", `{"queries":[{"vertices":["a"],"edges":[]}],"delta":-2}`, []string{"/batch"}, 400},
	}
	for _, c := range cases {
		for _, path := range c.paths {
			st1, b1 := do(t, single, c.method, path, c.body)
			st2, b2 := do(t, coord, c.method, path, c.body)
			if st1 != c.status || st2 != c.status {
				t.Errorf("%s %s: pgserve %d, pgproxy %d, want %d (%v / %v)", c.name, path, st1, st2, c.status, b1, b2)
			}
			if msg, _ := b1["error"].(string); msg == "" || !reflect.DeepEqual(b1, b2) {
				t.Errorf("%s %s: error bodies differ: pgserve %v, pgproxy %v", c.name, path, b1, b2)
			}
		}
	}

	// The probes run through the same handlers too; each process keeps its
	// own status and body shape (the proxy's fleet is not ready here).
	probes := []struct {
		process string
		h       http.Handler
		path    string
		status  int
		keys    string
	}{
		{"pgserve", single, "/healthz", 200, "generation graphs status"},
		{"pgserve", single, "/readyz", 200, "generation graphs partitioned ready"},
		{"pgproxy", coord, "/healthz", 200, "shards status"},
		{"pgproxy", coord, "/readyz", 503, "failed ready shards"},
	}
	for _, p := range probes {
		st, body := do(t, p.h, "GET", p.path, "")
		keys := slices.Sorted(maps.Keys(body))
		if st != p.status || strings.Join(keys, " ") != p.keys {
			t.Errorf("GET %s on %s: %d with keys %v, want %d with %s", p.path, p.process, st, keys, p.status, p.keys)
		}
	}
	// What only an evaluating node serves is not routed on the proxy.
	for _, rt := range []struct{ method, path string }{
		{"POST", "/topk/walk"}, {"POST", "/graphs"}, {"GET", "/debug/slowlog"},
	} {
		if rec := serve(coord, rt.method, rt.path, `{}`); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s on the proxy: %d, want 404", rt.method, rt.path, rec.Code)
		}
	}
	// Routes the API no longer has are gone from both processes: the
	// two-phase top-k pair, and /stats (/metrics is the counter surface).
	for _, rt := range []struct{ method, path string }{
		{"POST", "/topk/bounds"}, {"POST", "/topk/verify"}, {"GET", "/stats"},
	} {
		for process, h := range map[string]http.Handler{"pgserve": single, "pgproxy": coord} {
			if rec := serve(h, rt.method, rt.path, `{}`); rec.Code != http.StatusNotFound {
				t.Errorf("%s %s on %s: %d, want 404", rt.method, rt.path, process, rec.Code)
			}
		}
	}
}

// TestStreamTraceShape: a traced /query/stream through pgproxy ends with
// a summary whose span tree is rooted at "stream" with one
// shard:sN/query/stream child per shard; pgserve's has the same root. An
// untraced summary has no trace, and tracing changes no answer.
func TestStreamTraceShape(t *testing.T) {
	db := testDatabase(t, 3, 6)
	f := newFleet(t, db, partitionRanges(t, db, 2), false)
	req := server.QueryRequest{Graph: server.GraphToJSON(extractQueries(db, 3, 1)[0]), Epsilon: 0.3, Delta: 2, Seed: 3}
	stream := func(h http.Handler, trace bool) *server.StreamSummaryJSON {
		r := req
		r.Trace = trace
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := server.NewHandlerClient(h).Stream(context.Background(), "/query/stream", body,
			func(server.StreamMatchJSON, []byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	plain := stream(f.coord, false)
	traced := stream(f.coord, true)
	if plain.Trace != nil || traced.Trace == nil || traced.Trace.Name != "stream" {
		t.Fatalf("proxy traces: untraced %+v, traced %+v", plain.Trace, traced.Trace)
	}
	var children []string
	for _, c := range traced.Trace.Children {
		children = append(children, c.Name)
	}
	slices.Sort(children)
	if want := []string{"shard:s0/query/stream", "shard:s1/query/stream"}; !slices.Equal(children, want) {
		t.Errorf("proxy stream trace children %v, want %v", children, want)
	}
	if !slices.Equal(plain.Answers, traced.Answers) {
		t.Errorf("tracing changed the answers: %v vs %v", plain.Answers, traced.Answers)
	}
	if single := stream(f.single, true); single.Trace == nil || single.Trace.Name != "stream" ||
		!slices.Equal(single.Answers, traced.Answers) {
		t.Errorf("pgserve traced stream: %+v, answers %v", single.Trace, single.Answers)
	}
}

// hostileShard is a fake pgserve answering each path with a canned status
// and body.
type hostileShard map[string]struct {
	status int
	body   string
}

func (h hostileShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	a, ok := h[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.WriteHeader(a.status)
	io.WriteString(w, a.body)
}

// coordOver runs a coordinator over the given shard handlers, in process,
// named s0, s1, ...
func coordOver(t *testing.T, shards ...http.Handler) http.Handler {
	t.Helper()
	var members []cluster.Shard
	for i, h := range shards {
		members = append(members, cluster.Shard{Name: fmt.Sprintf("s%d", i), Client: server.NewHandlerClient(h)})
	}
	return newCoord(t, members)
}

const (
	hostileKnobs = `"graph":{"vertices":["a","b"],"edges":[{"u":0,"v":1,"label":"x"}]},"epsilon":0.3,"delta":1`
	hostileQuery = `{` + hostileKnobs + `}`
	hostileTopK  = `{` + hostileKnobs + `,"k":2}`
)

// TestHostileShard: whatever a shard sends back, the coordinator answers
// with a structured error naming it — no panic, no silently partial
// merge. The handler is called directly, so a panic fails the test
// instead of vanishing into net/http's recover.
func TestHostileShard(t *testing.T) {
	const (
		okQuery = `{"answers":[],"names":[],"ssp":{},"generation":1}`
		// What the good shard holds: global id 7, which no shard beside it
		// may answer as well.
		holds7 = `{"answers":[7],"names":["g7"],"ssp":{"7":0.6},"generation":1}`
		walk7  = `{"walk":[{"graph":7,"name":"g7","upper":0.95,"ssp":0.7}],"generation":1}`
	)
	// walk wraps /topk/walk entries in a reply at generation 1.
	walk := func(entries string) hostileShard {
		return hostileShard{"/topk/walk": {200, `{"walk":[` + entries + `],"generation":1}`}}
	}
	good := hostileShard{
		"/query":     {200, holds7},
		"/batch":     {200, `{"results":[` + holds7 + `,` + holds7 + `]}`},
		"/topk/walk": {200, walk7},
	}
	batchBody := `{"queries":[{"vertices":["a"],"edges":[]},{"vertices":["b"],"edges":[]}]}`
	cases := []struct {
		name, path, body string
		shard            hostileShard
		status           int
		flag, message    string
	}{
		{"null batch member", "/batch", batchBody,
			hostileShard{"/batch": {200, `{"results":[` + okQuery + `,null]}`}}, 502, "", "undecodable response"},
		{"batch member count", "/batch", batchBody,
			hostileShard{"/batch": {200, `{"results":[` + okQuery + `]}`}}, 502, "", "undecodable response"},
		{"batch members of two generations", "/batch", batchBody,
			hostileShard{"/batch": {200, `{"results":[` + okQuery + `,{"answers":[],"names":[],"generation":2}]}`}}, 502, "", "undecodable response"},
		{"names shorter than answers", "/query", hostileQuery,
			hostileShard{"/query": {200, `{"answers":[3,4],"names":["a"],"ssp":{},"generation":1}`}}, 502, "", "undecodable response"},
		{"undecodable body", "/query", hostileQuery,
			hostileShard{"/query": {200, `<html>`}}, 502, "", "undecodable response"},
		{"generation mismatch", "/query", hostileQuery,
			hostileShard{"/query": {200, `{"answers":[],"names":[],"generation":2}`}}, 503, "", "generation mismatch"},
		{"walk at another generation", "/topk", hostileTopK,
			hostileShard{"/topk/walk": {200, `{"walk":[{"graph":0,"name":"g0","upper":0.9,"ssp":0.5}],"generation":2}`}},
			503, "", "generation mismatch"},
		{"shard 504 on /query", "/query", hostileQuery,
			hostileShard{"/query": {504, `{"error":"query failed: deadline exceeded","timeout":true}`}},
			504, "timeout", "shard s1: query failed: deadline exceeded"},
		{"shard 504 on /topk", "/topk", hostileTopK,
			hostileShard{"/topk/walk": {504, `{"error":"topk walk failed: deadline exceeded","timeout":true}`}},
			504, "timeout", "shard s1: topk walk failed: deadline exceeded"},
		{"shard 503 cancelled", "/query", hostileQuery,
			hostileShard{"/query": {503, `{"error":"query failed: cancelled","cancelled":true}`}},
			503, "cancelled", "shard s1: query failed: cancelled"},
		{"unstructured error body", "/query", hostileQuery,
			hostileShard{"/query": {500, "boom\n"}}, 500, "", "shard s1: boom"},
		{"overlapping ranges on /query", "/query", hostileQuery,
			hostileShard{"/query": {200, holds7}}, 502, "", "undecodable response"},
		{"overlap in the SSP map only", "/query", hostileQuery,
			hostileShard{"/query": {200, `{"answers":[],"names":[],"ssp":{"7":0.1},"generation":1}`}}, 502, "", "undecodable response"},
		{"overlapping ranges on /batch", "/batch", batchBody,
			hostileShard{"/batch": {200, `{"results":[` + okQuery + `,` + holds7 + `]}`}}, 502, "", "undecodable response"},
		{"overlapping ranges on /topk", "/topk", hostileTopK,
			hostileShard{"/topk/walk": {200, walk7}}, 502, "", "undecodable response"},
		{"overlap under two different bounds", "/topk", hostileTopK,
			walk(`{"graph":3,"name":"g3","upper":0.5,"ssp":0.4},{"graph":7,"name":"g7","upper":0.4,"ssp":0.3}`),
			502, "", "undecodable response"},
		{"overlap at the stop entry", "/topk", hostileTopK,
			walk(`{"graph":7,"name":"g7","upper":0.4}`), 502, "", "undecodable response"},
		{"upper bound above 1", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":1.5,"ssp":0.5}`), 502, "", "undecodable response"},
		{"negative upper bound", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":-0.1}`), 502, "", "undecodable response"},
		{"ssp NaN", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":0.9,"ssp":NaN}`), 502, "", "undecodable response"},
		{"ssp above 1", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":0.9,"ssp":1.5}`), 502, "", "undecodable response"},
		{"negative ssp", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":0.9,"ssp":-0.2}`), 502, "", "undecodable response"},
		{"valued entry after the unvalued one", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":0.9},{"graph":1,"name":"g1","upper":0.8,"ssp":0.5}`),
			502, "", "undecodable response"},
		{"two unvalued entries", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":0.9},{"graph":1,"name":"g1","upper":0.8}`),
			502, "", "undecodable response"},
		{"walk out of schedule order", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":0.5,"ssp":0.4},{"graph":1,"name":"g1","upper":0.8,"ssp":0.3}`),
			502, "", "undecodable response"},
		// With k = 2 the good shard's one entry cannot end the fleet's
		// walk, so the replay reaches s1's stop entry: s1 stopped before its
		// own ranking held k items, which the rule never does.
		{"walk stops short", "/topk", hostileTopK,
			walk(`{"graph":0,"name":"g0","upper":0.9}`), 502, "", "undecodable response"},
	}
	for _, c := range cases {
		rec := serve(coordOver(t, good, c.shard), http.MethodPost, c.path, c.body)
		var e struct {
			Error, Shard       string
			Timeout, Cancelled bool
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: body %q: %v", c.name, rec.Body, err)
			continue
		}
		if rec.Code != c.status || e.Shard != "s1" || !strings.Contains(e.Error, c.message) ||
			e.Timeout != (c.flag == "timeout") || e.Cancelled != (c.flag == "cancelled") {
			t.Errorf("%s: %d %+v, want %d naming s1 with %q and flag %q", c.name, rec.Code, e, c.status, c.message, c.flag)
		}
	}
}

// TestHostileShardStream: the same contract on /query/stream, where the
// verdict rides in-band after a 200: one error line, flags preserved, the
// message naming the shard — never a summary.
func TestHostileShardStream(t *testing.T) {
	const (
		m0  = `{"graph":0,"name":"g0","ssp":0.5}` + "\n"
		sum = `{"done":true,"answers":[],"ssp":{},"count":0}` + "\n"
	)
	good := hostileShard{"/query/stream": {200, sum}}
	cases := []struct {
		name          string
		status        int
		body          string
		flag, message string
		// first, when set, is what s0 streams instead of a bare summary.
		// Then either shard may be the second to send an id, so the
		// message may name s0 as well.
		first string
	}{
		{"overlapping ids", 200, m0 + sum, "", "shard s1: undecodable response", m0 + sum},
		{"undecodable line", 200, m0 + "garbage\n" + sum, "", "shard s1: undecodable stream line", ""},
		{"ends before its summary", 200, m0, "", "shard s1: stream ended before summary: EOF", ""},
		{"empty", 200, "", "", "shard s1: stream ended before summary: EOF", ""},
		{"timeout line", 200, m0 + `{"error":"stream failed: context deadline exceeded","timeout":true}` + "\n", "timeout", "shard s1: stream failed: context deadline exceeded", ""},
		{"cancelled line", 200, `{"error":"stream failed: context canceled","cancelled":true}` + "\n", "cancelled", "shard s1: stream failed: context canceled", ""},
		{"refused up front", 504, `{"error":"busy","timeout":true}`, "timeout", "shard s1: busy", ""},
	}
	for _, c := range cases {
		first, want := good, []string{c.message}
		if c.first != "" {
			first = hostileShard{"/query/stream": {200, c.first}}
			want = append(want, strings.Replace(c.message, "s1", "s0", 1))
		}
		rec := serve(coordOver(t, first, hostileShard{"/query/stream": {c.status, c.body}}), http.MethodPost, "/query/stream", hostileQuery)
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		var e server.StreamErrorJSON
		if err := json.Unmarshal(lines[len(lines)-1], &e); err != nil {
			t.Errorf("%s: last line %q: %v", c.name, lines[len(lines)-1], err)
			continue
		}
		if rec.Code != 200 || !slices.Contains(want, e.Error) || e.Timeout != (c.flag == "timeout") || e.Cancelled != (c.flag == "cancelled") {
			t.Errorf("%s: %d, last line %+v, want %q with flag %q", c.name, rec.Code, e, c.message, c.flag)
		}
		if bytes.Contains(rec.Body.Bytes(), []byte(`"done"`)) {
			t.Errorf("%s: a failed stream carries a summary: %s", c.name, rec.Body)
		}
	}

	// The request's own cancellation cuts the shard streams short too; the
	// client (if still there) must be told, not handed a partial summary.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	coordOver(t, good, good).ServeHTTP(rec,
		httptest.NewRequest(http.MethodPost, "/query/stream", strings.NewReader(hostileQuery)).WithContext(ctx))
	var e server.StreamErrorJSON
	if err := json.Unmarshal(bytes.TrimSpace(rec.Body.Bytes()), &e); err != nil || !e.Cancelled || e.Error == "" {
		t.Errorf("cancelled request: body %q (%v), want one cancelled error line", rec.Body, err)
	}

	// A sibling the abort cuts short did nothing wrong: s0, still
	// evaluating when s1's garbage ends the fan-in, stays up.
	stuck := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-r.Context().Done() })
	coord := coordOver(t, stuck, hostileShard{"/query/stream": {200, "garbage\n"}})
	if rec := serve(coord, http.MethodPost, "/query/stream", hostileQuery); !strings.Contains(rec.Body.String(), "shard s1: undecodable stream line") {
		t.Errorf("garbage from s1: %q", rec.Body)
	}
	checkShardUp(t, coord, "after a sibling's stream failed")
}

// TestCoordinatorQueryCounters is TestMetricsExposition's counterpart for
// pgproxy: pg_queries_total counts accepted requests — a batch by its
// members, a rejected request not at all — exactly as pgserve counts.
func TestCoordinatorQueryCounters(t *testing.T) {
	db := testDatabase(t, 3, 6)
	f := newFleet(t, db, partitionRanges(t, db, 2), false)
	qs := extractQueries(db, 3, 3)
	req := server.QueryRequest{Graph: server.GraphToJSON(qs[0]), Epsilon: 0.3, Delta: 1}
	postJSON(t, f.coord, "/query", &req)
	postJSON(t, f.coord, "/query", &req)
	breq := server.BatchRequest{Epsilon: 0.3, Delta: 1}
	for _, q := range qs {
		breq.Queries = append(breq.Queries, *server.GraphToJSON(q))
	}
	postJSON(t, f.coord, "/batch", &breq)
	for _, path := range []string{"/query", "/topk", "/batch", "/query/stream"} {
		if st, _ := postJSON(t, f.coord, path, map[string]any{"epsilon": 7}); st != http.StatusBadRequest {
			t.Fatalf("%s: malformed request answered %d", path, st)
		}
	}

	rec := serve(f.coord, http.MethodGet, "/metrics", "")
	raw := rec.Body.Bytes()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type %q", ct)
	}
	// One request-metrics registration: every family appears once, and so
	// does every series.
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		key := line
		if !strings.HasPrefix(line, "#") {
			key = line[:strings.LastIndexByte(line, ' ')]
		}
		if seen[key] {
			t.Errorf("/metrics repeats %q", key)
		}
		seen[key] = true
	}
	for _, want := range []string{"# TYPE pg_queries_total counter", "# TYPE go_goroutines gauge", "# TYPE pg_shards gauge"} {
		if !seen[want] {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	for _, want := range []string{
		`pg_shard_up{shard="s0"} 1`,
		`pg_queries_total{endpoint="query"} 2`,
		`pg_queries_total{endpoint="topk"} 0`,
		`pg_queries_total{endpoint="batch"} 3`,
		`pg_queries_total{endpoint="stream"} 0`,
		// The histogram counts requests, rejected ones included.
		`pg_request_duration_seconds_count{endpoint="query"} 3`,
		`pg_request_duration_seconds_count{endpoint="batch"} 2`,
	} {
		if !strings.Contains(string(raw), "\n"+want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
