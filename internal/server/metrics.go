package server

import (
	"net/http"
	"runtime"
	"time"

	"probgraph/internal/obs"
)

// serverMetrics holds the server's observability state: per-endpoint
// query counters and latency histograms, mutation counters, the shared
// pipeline-stage metrics the engine observes into, and the slow-query
// ring. Everything is registered on one obs.Registry, and /stats reads
// the same counters /metrics exposes — the two can never disagree.
type serverMetrics struct {
	reg      *obs.Registry
	pipeline *obs.Pipeline
	slowlog  *obs.Slowlog

	queries   map[string]*obs.Counter   // endpoint -> request count
	latency   map[string]*obs.Histogram // endpoint -> wall-clock seconds
	mutations map[string]*obs.Counter   // op -> committed mutations
	compact   *obs.Counter
}

// queryEndpoints are the instrumented evaluation endpoints, in the order
// their counters register (registration order is exposition order).
var queryEndpoints = []string{"query", "topk", "batch", "stream", "topk_bounds", "topk_verify"}

var mutationOps = []string{"add", "remove", "replace"}

func newServerMetrics(s *Server, reg *obs.Registry, slowlogSize int) *serverMetrics {
	m := &serverMetrics{
		reg:       reg,
		pipeline:  obs.NewPipeline(reg),
		slowlog:   obs.NewSlowlog(slowlogSize),
		queries:   make(map[string]*obs.Counter, len(queryEndpoints)),
		latency:   make(map[string]*obs.Histogram, len(queryEndpoints)),
		mutations: make(map[string]*obs.Counter, len(mutationOps)),
	}
	for _, ep := range queryEndpoints {
		m.queries[ep] = reg.Counter("pg_queries_total",
			"Queries accepted per endpoint (batch counts members; incremented before the cache lookup).",
			"endpoint", ep)
		m.latency[ep] = reg.Histogram("pg_request_duration_seconds",
			"End-to-end request latency per endpoint, cache hits included.",
			nil, "endpoint", ep)
	}
	for _, op := range mutationOps {
		m.mutations[op] = reg.Counter("pg_mutations_total",
			"Committed mutations by operation.", "op", op)
	}
	m.compact = reg.Counter("pg_compactions_total",
		"Auto-compactions triggered by mutations (graph indices renumbered).")

	// Scrape-time families read the very sources /stats reports, so the
	// two views agree by construction.
	reg.Collect("pg_inflight_queries", "gauge",
		"Evaluations currently running or waiting on the inflight semaphore.",
		func(emit func(string, float64)) { emit("", float64(s.inflight.Load())) })
	reg.Collect("pg_cache_hits_total", "counter",
		"Result-cache hits.", func(emit func(string, float64)) {
			h, _ := s.cache.Counters()
			emit("", float64(h))
		})
	reg.Collect("pg_cache_misses_total", "counter",
		"Result-cache misses.", func(emit func(string, float64)) {
			_, mi := s.cache.Counters()
			emit("", float64(mi))
		})
	reg.Collect("pg_cache_entries", "gauge",
		"Result-cache resident entries.",
		func(emit func(string, float64)) { emit("", float64(s.cache.Len())) })
	reg.Collect("pg_cache_generation_hits_total", "counter",
		"Result-cache hits by database generation (recent generations only).",
		func(emit func(string, float64)) {
			for _, e := range s.genStats.snapshotSorted() {
				emit(obs.Labels("generation", e.Gen), float64(e.Hits))
			}
		})
	reg.Collect("pg_cache_generation_misses_total", "counter",
		"Result-cache misses by database generation (recent generations only).",
		func(emit func(string, float64)) {
			for _, e := range s.genStats.snapshotSorted() {
				emit(obs.Labels("generation", e.Gen), float64(e.Misses))
			}
		})
	reg.Collect("pg_db_generation", "gauge",
		"Current database generation.", func(emit func(string, float64)) {
			emit("", float64(s.db.View().Generation))
		})
	reg.Collect("pg_db_graphs", "gauge",
		"Database slots by state.", func(emit func(string, float64)) {
			v := s.db.View()
			emit(obs.Labels("state", "live"), float64(v.NumLive()))
			emit(obs.Labels("state", "tombstoned"), float64(v.Tombstones()))
		})
	reg.Collect("pg_index_bytes", "gauge",
		"PMI index size in bytes.", func(emit func(string, float64)) {
			emit("", float64(s.db.View().Build.IndexSizeBytes))
		})
	reg.Collect("pg_uptime_seconds", "gauge",
		"Seconds since the server started.", func(emit func(string, float64)) {
			emit("", time.Since(s.start).Seconds())
		})
	reg.Collect("pg_max_inflight", "gauge",
		"Configured inflight-query bound (0 = unbounded).",
		func(emit func(string, float64)) {
			mi := s.opt.MaxInflight
			if mi < 0 {
				mi = 0
			}
			emit("", float64(mi))
		})
	reg.Collect("pg_workers_default", "gauge",
		"Default per-query worker count (-1 = GOMAXPROCS).",
		func(emit func(string, float64)) {
			w := s.opt.Workers
			if w < 0 {
				w = runtime.GOMAXPROCS(0)
			}
			emit("", float64(w))
		})
	reg.RegisterGoRuntime()
	return m
}

// totalQueries sums the per-endpoint counters — the value /stats reports
// as "queries", read from the same atomics /metrics renders.
func (m *serverMetrics) totalQueries() int64 {
	var n int64
	for _, c := range m.queries { //pgvet:sorted sums every counter; addition is order-insensitive
		n += c.Value()
	}
	return n
}

// Instrument wraps a query-endpoint handler with the observability
// middleware pgserve and pgproxy share: a fresh trace whose root span
// covers the handler (stage spans — or a coordinator's shard sub-requests
// — attach under it), the pipeline bridge, the X-PG-Trace-Id response
// header, the endpoint latency histogram, and slowlog admission. The
// trace itself is cheap (one small allocation and mutex-guarded span
// appends at stage granularity); per-candidate hot paths never see it.
// pipeline and slowlog may be nil (a coordinator evaluates nothing and
// keeps no slowlog).
func Instrument(endpoint string, latency *obs.Histogram, pipeline *obs.Pipeline, slowlog *obs.Slowlog, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTrace()
		root := tr.Root(endpoint)
		ctx := obs.ContextWithSpan(r.Context(), root)
		ctx = obs.ContextWithPipeline(ctx, pipeline)
		w.Header().Set("X-PG-Trace-Id", tr.ID())
		h(w, r.WithContext(ctx))
		root.End()
		elapsed := time.Since(start)
		latency.Observe(elapsed.Seconds())
		durMS := float64(elapsed.Microseconds()) / 1000
		if slowlog.Admits(durMS) {
			slowlog.Offer(obs.SlowEntry{
				TraceID:    tr.ID(),
				Endpoint:   endpoint,
				Time:       start,
				DurationMS: durMS,
				Trace:      tr.Tree(),
			})
		}
	}
}

// TraceWanted reports whether the request opted into an inline span tree
// (trace=1 URL knob or the request body's trace field).
func TraceWanted(r *http.Request, bodyFlag bool) bool {
	return bodyFlag || r.URL.Query().Get("trace") == "1"
}

// TraceTree snapshots the request's span tree for inline delivery. The
// root span is still open (the middleware ends it after the response is
// written), so its duration reads as-of-now — evaluation is complete at
// every call site, only response encoding is excluded.
func TraceTree(r *http.Request) *obs.SpanNode {
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		return tr.Tree()
	}
	return nil
}

// MetricsHandler serves reg in Prometheus text exposition format.
func MetricsHandler(reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	}
}

// handleSlowlog serves the N slowest queries (with span trees), slowest
// first.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, map[string]any{"slowest": s.metrics.slowlog.Snapshot()})
}
