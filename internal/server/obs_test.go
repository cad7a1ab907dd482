package server

import (
	"io"
	"net/http"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"probgraph/internal/obs"
)

// scrapeMetrics GETs /metrics and returns the raw exposition body plus a
// series → value map keyed exactly as rendered ("name" or "name{labels}").
func scrapeMetrics(t *testing.T, env *testEnv) (string, map[string]float64) {
	t.Helper()
	hr, err := http.Get(env.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", hr.StatusCode)
	}
	if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: Content-Type %q", ct)
	}
	raw, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	series := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		series[line[:sp]] = v
	}
	return string(raw), series
}

// slots is the database's slot count, live and tombstoned, as /metrics
// reports it.
func slots(series map[string]float64) float64 {
	return series[`pg_db_graphs{state="live"}`] + series[`pg_db_graphs{state="tombstoned"}`]
}

// queriesTotal sums pg_queries_total over every endpoint a local server
// instruments.
func queriesTotal(series map[string]float64) float64 {
	var n float64
	for _, ep := range slices.Concat(queryEndpoints, localEndpoints) {
		n += series[`pg_queries_total{endpoint="`+ep+`"}`]
	}
	return n
}

var (
	commentLine = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	sampleLine  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\+Inf|-Inf|NaN|[-+0-9.eE]+)$`)
)

// TestMetricsExposition is the /metrics golden test: after a known request
// mix, the exposition parses line by line against the 0.0.4 text format,
// the per-endpoint query counters carry exactly the requests sent (batch
// counting members), the latency histogram is cumulative and consistent,
// and counters only move up between scrapes.
func TestMetricsExposition(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 7}
	env.post(t, "/query", req, nil)
	env.post(t, "/query", req, nil) // cache hit — still counted
	env.post(t, "/topk", QueryRequest{GraphText: env.qtexts[1], Epsilon: 0.4, Delta: 1, K: 3, Seed: 8}, nil)
	env.post(t, "/batch", BatchRequest{QueryTexts: env.qtexts, Epsilon: 0.4, Delta: 1, Seed: 9}, nil)

	raw, series := scrapeMetrics(t, env)
	for _, line := range strings.Split(raw, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if !commentLine.MatchString(line) {
				t.Errorf("malformed comment line: %q", line)
			}
		} else if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}

	wantCounts := map[string]float64{
		`pg_queries_total{endpoint="query"}`:  2,
		`pg_queries_total{endpoint="topk"}`:   1,
		`pg_queries_total{endpoint="batch"}`:  3, // members, not requests
		`pg_queries_total{endpoint="stream"}`: 0,
	}
	for s, want := range wantCounts {
		if got, ok := series[s]; !ok || got != want {
			t.Errorf("%s = %v (present=%t), want %v", s, got, ok, want)
		}
	}
	// The histogram counts requests (the batch is one request), its +Inf
	// bucket is the total, and buckets are cumulative non-decreasing.
	if got := series[`pg_request_duration_seconds_bucket{endpoint="query",le="+Inf"}`]; got != 2 {
		t.Errorf("query +Inf bucket = %v, want 2", got)
	}
	if got := series[`pg_request_duration_seconds_count{endpoint="batch"}`]; got != 1 {
		t.Errorf("batch histogram count = %v, want 1 (one request)", got)
	}
	prev := -1.0
	for _, b := range []string{"0.0001", "0.001", "0.01", "0.1", "1", "10", "+Inf"} {
		v, ok := series[`pg_request_duration_seconds_bucket{endpoint="query",le="`+b+`"}`]
		if !ok {
			t.Fatalf("missing query bucket le=%q", b)
		}
		if v < prev {
			t.Fatalf("bucket le=%q = %v below previous %v (must be cumulative)", b, v, prev)
		}
		prev = v
	}
	// Pipeline-bridge families: every query here is extracted from a
	// database graph, so the structural filter confirms at least its source.
	if series["pg_struct_confirmed_total"] < 1 {
		t.Errorf("pg_struct_confirmed_total = %v, want >= 1", series["pg_struct_confirmed_total"])
	}
	if series[`pg_stage_duration_seconds_count{stage="verify"}`] < 1 {
		t.Error("verify stage histogram never observed")
	}
	// Database-shape and runtime families.
	if got := series[`pg_db_graphs{state="live"}`]; got != 10 {
		t.Errorf(`pg_db_graphs{state="live"} = %v, want 10`, got)
	}
	if series["pg_db_generation"] != 1 || series["go_goroutines"] < 1 {
		t.Errorf("generation %v / goroutines %v", series["pg_db_generation"], series["go_goroutines"])
	}

	// Monotonicity across scrapes.
	env.post(t, "/query", QueryRequest{GraphText: env.qtexts[2], Epsilon: 0.4, Delta: 1, Seed: 10}, nil)
	_, after := scrapeMetrics(t, env)
	if got := after[`pg_queries_total{endpoint="query"}`]; got != 3 {
		t.Errorf("after third query counter = %v, want 3", got)
	}
	for _, s := range []string{
		`pg_queries_total{endpoint="query"}`, "pg_cache_misses_total",
		"pg_struct_confirmed_total", `pg_request_duration_seconds_sum{endpoint="query"}`,
	} {
		if after[s] < series[s] {
			t.Errorf("counter %s went backwards: %v -> %v", s, series[s], after[s])
		}
	}
}

// TestTracePropagation covers the inline-trace knob and the trace-id
// header: every query response names its trace, trace=1 (body field or
// URL knob) inlines a span tree whose stages mirror the engine pipeline,
// cache hits included, and untraced responses carry no tree.
func TestTracePropagation(t *testing.T) {
	env := newTestEnv(t, Options{})
	req := QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 7, Trace: true}

	var traced QueryResponse
	hr := env.post(t, "/query", &req, &traced)
	if id := hr.Header.Get("X-PG-Trace-Id"); id == "" {
		t.Fatal("no X-PG-Trace-Id header on a query response")
	}
	if traced.Trace == nil {
		t.Fatal("trace=true produced no inline span tree")
	}
	if traced.Trace.Name != "query" {
		t.Fatalf("root span %q, want query", traced.Trace.Name)
	}
	stages := map[string]bool{}
	for _, c := range traced.Trace.Children {
		stages[c.Name] = true
	}
	for _, want := range []string{"struct_filter", "relax", "verify"} {
		if !stages[want] {
			t.Errorf("span tree missing %s stage: have %v", want, stages)
		}
	}

	// Untraced request: same query semantics, no tree, fresh trace id.
	req.Trace = false
	req.NoCache = true
	var plain QueryResponse
	hr2 := env.post(t, "/query", &req, &plain)
	if plain.Trace != nil {
		t.Fatal("untraced response carries a span tree")
	}
	if hr2.Header.Get("X-PG-Trace-Id") == hr.Header.Get("X-PG-Trace-Id") {
		t.Fatal("trace ids repeat across requests")
	}

	// URL knob on a cache hit: the trace covers this request (root + cache
	// lookup), even though no evaluation ran.
	req.NoCache = false
	var cached QueryResponse
	env.post(t, "/query?trace=1", &req, &cached)
	if !cached.Cached {
		t.Fatal("expected a cache hit")
	}
	if cached.Trace == nil || cached.Trace.Name != "query" {
		t.Fatalf("cache hit with trace=1: tree %+v", cached.Trace)
	}
}

// TestSlowlogEndpoint: served queries land in /debug/slowlog slowest
// first, each entry naming its trace; a negative SlowlogSize disables the
// ring entirely.
func TestSlowlogEndpoint(t *testing.T) {
	env := newTestEnv(t, Options{})
	for i, qt := range env.qtexts {
		env.post(t, "/query", QueryRequest{GraphText: qt, Epsilon: 0.4, Delta: 1, Seed: int64(i)}, nil)
	}
	var sl struct {
		Slowest []obs.SlowEntry `json:"slowest"`
	}
	env.get(t, "/debug/slowlog", &sl)
	if len(sl.Slowest) != len(env.qtexts) {
		t.Fatalf("slowlog holds %d entries, want %d", len(sl.Slowest), len(env.qtexts))
	}
	for i, e := range sl.Slowest {
		if e.TraceID == "" || e.Endpoint != "query" || e.Trace == nil {
			t.Fatalf("entry %d incomplete: %+v", i, e)
		}
		if e.Trace.Name != "query" {
			t.Fatalf("entry %d span tree root %q", i, e.Trace.Name)
		}
		if i > 0 && sl.Slowest[i-1].DurationMS < e.DurationMS {
			t.Fatalf("slowlog out of order at %d: %v before %v", i, sl.Slowest[i-1].DurationMS, e.DurationMS)
		}
	}

	off := newTestEnv(t, Options{SlowlogSize: -1})
	off.post(t, "/query", QueryRequest{GraphText: off.qtexts[0], Epsilon: 0.4, Delta: 1}, nil)
	var empty struct {
		Slowest []obs.SlowEntry `json:"slowest"`
	}
	off.get(t, "/debug/slowlog", &empty)
	if len(empty.Slowest) != 0 {
		t.Fatalf("disabled slowlog returned %d entries", len(empty.Slowest))
	}
}

// TestMutationMetricsAndCompactedSlots: committed mutations move the op
// counters, and a threshold-crossing removal reports the reclaimed slot
// count identically on the HTTP response, the mutation-log event, and the
// compaction counter.
func TestMutationMetricsAndCompactedSlots(t *testing.T) {
	var events []MutationEvent
	env := newTestEnv(t, Options{MutationLog: func(ev MutationEvent) {
		events = append(events, ev)
	}})
	env.db.SetCompactThreshold(0.15)

	env.post(t, "/graphs", AddGraphRequest{GraphText: pgraphText(t, 818)}, nil) // 11 live
	var rm1, rm2 MutationResponse
	env.send(t, http.MethodDelete, "/graphs/0", nil, &rm1) // 1/11 tombstoned — below
	env.send(t, http.MethodDelete, "/graphs/1", nil, &rm2) // 2/11 — crosses 0.15
	if rm1.Compacted || rm1.CompactedSlots != 0 {
		t.Fatalf("first remove compacted: %+v", rm1)
	}
	if !rm2.Compacted || rm2.CompactedSlots != 2 {
		t.Fatalf("second remove: %+v, want compacted with 2 slots reclaimed", rm2)
	}
	if len(events) != 3 {
		t.Fatalf("logged %d mutation events, want 3", len(events))
	}
	last := events[2]
	if !last.Compacted || last.CompactedSlots != rm2.CompactedSlots {
		t.Fatalf("event/response disagree on compaction: event %+v, response %+v", last, rm2)
	}
	// The compacting removal commits two generations: the tombstone and
	// then the renumbered, compacted view.
	if last.OldGeneration != 3 || last.NewGeneration != 5 {
		t.Fatalf("event generations %d -> %d, want 3 -> 5", last.OldGeneration, last.NewGeneration)
	}

	_, series := scrapeMetrics(t, env)
	wants := map[string]float64{
		`pg_mutations_total{op="add"}`:     1,
		`pg_mutations_total{op="remove"}`:  2,
		`pg_mutations_total{op="replace"}`: 0,
		"pg_compactions_total":             1,
		`pg_db_graphs{state="live"}`:       9,
		`pg_db_graphs{state="tombstoned"}`: 0, // compaction dropped them
	}
	for s, want := range wants {
		if got := series[s]; got != want {
			t.Errorf("%s = %v, want %v", s, got, want)
		}
	}
}
