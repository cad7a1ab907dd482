package server

import (
	"context"
	"net/http"
	"runtime"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
)

// Options configures a Server.
type Options struct {
	// CacheSize caps the LRU result cache (entries). 0 selects the default
	// (256); negative disables caching.
	CacheSize int
	// Workers is the default QueryOptions.Concurrency for requests that do
	// not set workers themselves. 0 selects GOMAXPROCS (-1).
	Workers int
	// MaxInflight bounds concurrently evaluated queries; further requests
	// wait. 0 selects 2×GOMAXPROCS; negative means unbounded.
	MaxInflight int
	// Timeout is the default per-request evaluation deadline. A request's
	// timeout_ms overrides it; 0 means no server-side default. A query
	// that outlives its deadline is cancelled (candidate granularity) and
	// answered with a structured HTTP 504 — never a hung connection.
	Timeout time.Duration
	// MutationLog, when set, is called once per committed mutation
	// (add/remove/replace) with the old→new generation transition —
	// pgserve wires it to one structured log line per mutation.
	MutationLog func(MutationEvent)
	// Metrics is the registry /metrics serves and every server metric
	// registers on. nil creates a private registry — /metrics always
	// works; pass one to co-register process-level gauges (pgserve adds
	// its snapshot-load gauge this way).
	Metrics *obs.Registry
	// SlowlogSize bounds the /debug/slowlog ring of slowest queries.
	// 0 selects the default (32); negative disables the slowlog.
	SlowlogSize int
}

func (o Options) withDefaults() Options {
	if o.CacheSize == 0 {
		o.CacheSize = 256
	}
	if o.Workers == 0 {
		o.Workers = -1
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.SlowlogSize == 0 {
		o.SlowlogSize = 32
	}
	return o
}

// MutationEvent describes one committed mutation for logging: the
// operation and core's record of it.
type MutationEvent struct {
	Op string // "add", "remove", "replace"
	core.Mutation
}

// Backend is what a Server answers queries with: an evaluating node over
// one resident Database (New) or a fleet of range shards
// (internal/cluster, served with NewOver). Each query method receives a
// request the shared handler has already accepted — the decoded request
// itself, so a fleet can forward it verbatim, plus the parsed graph(s)
// and engine options it derived — and returns the reply body or the
// failure (an *Error, or an evaluation error ErrorFrom maps). Everything
// that differs between the two kinds of server — caching, admission,
// default deadlines and workers, fan-out and merging — lives behind this
// interface, so the handlers never ask which kind they serve.
type Backend interface {
	Query(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions) (*QueryResponse, error)
	TopK(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions) (*TopKResponse, error)
	Batch(ctx context.Context, req *BatchRequest, qs []*graph.Graph, opt core.QueryOptions) (*BatchResponse, error)
	// Stream writes the request's match lines to sw as they are admitted.
	// On nil the handler ends the stream with its summary line, otherwise
	// with the error line (both are dropped once the client is gone).
	Stream(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions, sw *StreamWriter) error
	// Healthz is the /healthz body: the process is up and serving HTTP.
	Healthz() any
	// Readyz is the /readyz body, and whether queries can be answered
	// (503 otherwise).
	Readyz(ctx context.Context) (body any, ready bool)
	// Stats is the /stats body; queries is the handlers' accepted-request
	// count.
	Stats(queries int64) any
}

// Server is the query API's one handler set: /query, /topk, /batch and
// /query/stream over a Backend, with /stats, /healthz, /readyz and
// /metrics. Every query handler runs the same steps — Accept, count the
// request, call the backend, stamp time_ms and the optional span tree,
// write the reply or the failure — so pgserve and pgproxy answer alike
// by construction.
type Server struct {
	b   Backend
	mux *http.ServeMux
	// pipeline and slowlog are an evaluating node's; over a fleet, which
	// evaluates nothing, both are nil and instrument skips them.
	pipeline *obs.Pipeline
	slowlog  *obs.Slowlog
	queries  map[string]*obs.Counter   // endpoint -> accepted requests
	latency  map[string]*obs.Histogram // endpoint -> wall-clock seconds
}

// queryEndpoints are the instrumented endpoints every Server serves, in
// the order their metrics register (registration order is exposition
// order). New adds localEndpoints after them.
var queryEndpoints = []string{"query", "topk", "batch", "stream"}

// NewOver serves the query API over b, registering the request metrics
// and the Go runtime families on reg. pgproxy runs it over a fleet;
// New runs it over a local database.
func NewOver(b Backend, reg *obs.Registry) *Server {
	s := newServer(b, reg, nil, nil)
	reg.RegisterGoRuntime()
	return s
}

// newServer builds the shared handler set and registers the request
// metrics of queryEndpoints plus extra; the caller registers the Go
// runtime families once its own families are in.
func newServer(b Backend, reg *obs.Registry, pipeline *obs.Pipeline, slowlog *obs.Slowlog, extra ...string) *Server {
	s := &Server{
		b: b, mux: http.NewServeMux(), pipeline: pipeline, slowlog: slowlog,
		queries: make(map[string]*obs.Counter),
		latency: make(map[string]*obs.Histogram),
	}
	for _, ep := range append(queryEndpoints, extra...) {
		s.queries[ep] = reg.Counter("pg_queries_total",
			"Queries accepted per endpoint (batch counts members; rejected requests are not counted, cache hits are).",
			"endpoint", ep)
		s.latency[ep] = reg.Histogram("pg_request_duration_seconds",
			"End-to-end request latency per endpoint, cache hits and rejected requests included.",
			nil, "endpoint", ep)
	}
	s.mux.HandleFunc("/query", s.instrument("query", s.handleQuery))
	s.mux.HandleFunc("/query/stream", s.instrument("stream", s.handleQueryStream))
	s.mux.HandleFunc("/topk", s.instrument("topk", s.handleTopK))
	s.mux.HandleFunc("/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// QueryRequest is the /query (and, with K, /topk) payload. The query graph
// comes either as structured JSON (graph) or in the text codec
// (graph_text). Epsilon defaults to 0.5, verifier to "smp"; seed drives
// every randomized step deterministically.
type QueryRequest struct {
	Graph     *GraphJSON `json:"graph,omitempty"`
	GraphText string     `json:"graph_text,omitempty"`
	Epsilon   float64    `json:"epsilon,omitempty"`
	Delta     int        `json:"delta"`
	Verifier  string     `json:"verifier,omitempty"`
	Plain     bool       `json:"plain,omitempty"` // plain SSPBound instead of OPT-SSPBound
	Seed      int64      `json:"seed,omitempty"`
	Workers   int        `json:"workers,omitempty"`
	K         int        `json:"k,omitempty"`        // /topk only
	NoCache   bool       `json:"no_cache,omitempty"` // bypass the result cache
	// Trace inlines the request's span tree in the response (also
	// enabled by the trace=1 URL knob). Purely observational: answers,
	// stats, and caching are bitwise-identical with and without it.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMS caps this request's evaluation time in milliseconds,
	// overriding the server's default deadline (0 keeps the default). On
	// expiry the endpoints answer a structured HTTP 504; /query/stream
	// ends the NDJSON stream with an error line instead.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// StatsJSON reports the pipeline counters of one query (times in
// milliseconds).
type StatsJSON struct {
	StructFilterCandidates int     `json:"struct_filter_candidates"`
	StructConfirmed        int     `json:"struct_confirmed"`
	PrunedByUpper          int     `json:"pruned_by_upper"`
	AcceptedByLower        int     `json:"accepted_by_lower"`
	VerifyCandidates       int     `json:"verify_candidates"`
	RelaxedQueries         int     `json:"relaxed_queries"`
	TimeStructMS           float64 `json:"time_struct_ms"`
	TimeProbMS             float64 `json:"time_prob_ms"`
	TimeVerifyMS           float64 `json:"time_verify_ms"`
	TimeTotalMS            float64 `json:"time_total_ms"`
}

func statsJSON(st core.Stats) StatsJSON {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return StatsJSON{
		StructFilterCandidates: st.StructFilterCandidates,
		StructConfirmed:        st.StructConfirmed,
		PrunedByUpper:          st.PrunedByUpper,
		AcceptedByLower:        st.AcceptedByLower,
		VerifyCandidates:       st.VerifyCandidates,
		RelaxedQueries:         st.RelaxedQueries,
		TimeStructMS:           ms(st.TimeStruct),
		TimeProbMS:             ms(st.TimeProb),
		TimeVerifyMS:           ms(st.TimeVerify),
		TimeTotalMS:            ms(st.TimeTotal),
	}
}

// QueryResponse is the /query reply. Answers lists matching graph indices
// ascending; SSP maps verified indices to their estimated subgraph
// similarity probability (-1 for direct accepts, exactly as the library
// reports them). Generation is the database generation the query ran
// against; Cached marks responses served from the result cache (computed
// under that same generation).
type QueryResponse struct {
	Answers    []int           `json:"answers"`
	Names      []string        `json:"names"`
	SSP        map[int]float64 `json:"ssp"`
	Stats      StatsJSON       `json:"stats"`
	Generation uint64          `json:"generation"`
	Cached     bool            `json:"cached"`
	TimeMS     float64         `json:"time_ms"`
	// Trace is the request's span tree, present only when requested
	// (trace=1 or the body's trace field).
	Trace *obs.SpanNode `json:"trace,omitempty"`
}

// TopKItemJSON is one /topk ranking entry.
type TopKItemJSON struct {
	Graph int     `json:"graph"`
	Name  string  `json:"name"`
	SSP   float64 `json:"ssp"`
}

// TopKResponse is the /topk reply.
type TopKResponse struct {
	Items      []TopKItemJSON `json:"items"`
	Generation uint64         `json:"generation"`
	Cached     bool           `json:"cached"`
	TimeMS     float64        `json:"time_ms"`
	Trace      *obs.SpanNode  `json:"trace,omitempty"`
}

// BatchRequest is the /batch payload: many queries sharing one option set.
// Query i runs with seed BatchSeed(seed, i), exactly like
// View.QueryBatchCtx — batching never changes an individual answer.
type BatchRequest struct {
	Queries    []GraphJSON `json:"queries,omitempty"`
	QueryTexts []string    `json:"query_texts,omitempty"`
	Epsilon    float64     `json:"epsilon,omitempty"`
	Delta      int         `json:"delta"`
	Verifier   string      `json:"verifier,omitempty"`
	Plain      bool        `json:"plain,omitempty"`
	Seed       int64       `json:"seed,omitempty"`
	Workers    int         `json:"workers,omitempty"`
	NoCache    bool        `json:"no_cache,omitempty"`
	TimeoutMS  int64       `json:"timeout_ms,omitempty"` // per-request deadline override
	Trace      bool        `json:"trace,omitempty"`      // inline the batch's span tree
}

// BatchResponse is the /batch reply, results in input order.
type BatchResponse struct {
	Results []*QueryResponse `json:"results"`
	TimeMS  float64          `json:"time_ms"`
	Trace   *obs.SpanNode    `json:"trace,omitempty"`
}

// AddGraphRequest is the POST /graphs ingestion (and PUT /graphs/{id}
// replacement) payload: one probabilistic graph as structured JSON
// (graph, with jpts) or a dataset pgraph text block (graph_text).
type AddGraphRequest struct {
	Graph     *GraphJSON `json:"graph,omitempty"`
	GraphText string     `json:"graph_text,omitempty"`
}

// MutationResponse reports a committed mutation: the slot it targeted (or
// created), the generation it produced, and the resulting live/tombstoned
// counts. Compacted marks mutations whose tombstone count crossed the
// auto-compaction threshold — graph indices were renumbered.
type MutationResponse struct {
	Op             string `json:"op"`
	Index          int    `json:"index"`
	Generation     uint64 `json:"generation"`
	Graphs         int    `json:"graphs"` // live graphs
	Tombstoned     int    `json:"tombstoned"`
	Compacted      bool   `json:"compacted,omitempty"`
	CompactedSlots int    `json:"compacted_slots,omitempty"`
}

// GenCacheJSON is one generation's result-cache hit/miss counters.
type GenCacheJSON struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// StatsResponse is the /stats reply. Graphs counts slots (tombstoned
// included), LiveGraphs the queryable ones. CacheGenerations maps recent
// generation numbers (decimal strings) to their result-cache hit/miss
// counters.
type StatsResponse struct {
	Graphs           int                     `json:"graphs"`
	LiveGraphs       int                     `json:"live_graphs"`
	TombstonedGraphs int                     `json:"tombstoned_graphs"`
	Generation       uint64                  `json:"generation"`
	PMIFeatures      int                     `json:"pmi_features"`
	IndexBytes       int                     `json:"index_bytes"`
	UptimeMS         float64                 `json:"uptime_ms"`
	Queries          int64                   `json:"queries"`
	Inflight         int64                   `json:"inflight"`
	CacheHits        int64                   `json:"cache_hits"`
	CacheMisses      int64                   `json:"cache_misses"`
	CacheEntries     int                     `json:"cache_entries"`
	CacheCap         int                     `json:"cache_cap"`
	CacheGenerations map[string]GenCacheJSON `json:"cache_generations"`
	Workers          int                     `json:"workers"`
	// DefaultTimeoutMS is the server's per-request deadline default
	// (Options.Timeout); 0 means queries run unbounded unless the request
	// sets timeout_ms.
	DefaultTimeoutMS float64 `json:"default_timeout_ms"`
}

// reply is a query handler's epilogue: the failure, or the body stamped
// with its time_ms (from start, just after Accept) and — when the
// request asked for it — the span tree.
func reply[R interface {
	stamp(ms float64, tr *obs.SpanNode)
}](w http.ResponseWriter, r *http.Request, what string, trace bool, start time.Time, resp R, err error) {
	if err != nil {
		ErrorFrom(what, err).Write(w)
		return
	}
	var tr *obs.SpanNode
	if TraceWanted(r, trace) {
		tr = TraceTree(r)
	}
	resp.stamp(float64(time.Since(start).Microseconds())/1000, tr)
	WriteJSON(w, resp)
}

func (q *QueryResponse) stamp(ms float64, tr *obs.SpanNode)      { q.TimeMS, q.Trace = ms, tr }
func (t *TopKResponse) stamp(ms float64, tr *obs.SpanNode)       { t.TimeMS, t.Trace = ms, tr }
func (b *BatchResponse) stamp(ms float64, tr *obs.SpanNode)      { b.TimeMS, b.Trace = ms, tr }
func (t *TopKBoundsResponse) stamp(ms float64, tr *obs.SpanNode) { t.TimeMS, t.Trace = ms, tr }

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	q, opt, ok := Accept(w, r, &req, req.Check)
	if !ok {
		return
	}
	s.queries["query"].Inc()
	start := time.Now()
	resp, err := s.b.Query(r.Context(), &req, q, opt)
	reply(w, r, "query failed", req.Trace, start, resp, err)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	q, opt, ok := Accept(w, r, &req, req.CheckTopK)
	if !ok {
		return
	}
	s.queries["topk"].Inc()
	start := time.Now()
	resp, err := s.b.TopK(r.Context(), &req, q, opt)
	reply(w, r, "topk failed", req.Trace, start, resp, err)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	qs, opt, ok := Accept(w, r, &req, req.Check)
	if !ok {
		return
	}
	s.queries["batch"].Add(int64(len(qs)))
	start := time.Now()
	resp, err := s.b.Batch(r.Context(), &req, qs, opt)
	reply(w, r, "batch failed", req.Trace, start, resp, err)
}

// handleQueryStream is POST /query/stream: the /query pipeline with
// incremental NDJSON delivery. Each match line is written and flushed as
// the backend admits it — arrival order, the one scheduling-dependent
// aspect of the engine — followed by a summary line carrying the sorted
// answer set, or, when the stream cannot complete, by one error line
// (the status line is long gone). Client disconnect cancels the query
// via r.Context(); timeout_ms bounds it.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	q, opt, ok := Accept(w, r, &req, req.CheckStream)
	if !ok {
		return
	}
	s.queries["stream"].Inc()
	start := time.Now()
	sw := NewStreamWriter(w)
	if err := s.b.Stream(r.Context(), &req, q, opt, sw); err != nil {
		sw.Fail(ErrorFrom("stream failed", err))
		return
	}
	sw.Done(start)
}

// handleStats reports the backend's counters and shape; "queries" is
// read from the same counters /metrics renders.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var n int64
	for _, c := range s.queries { //pgvet:sorted sums every counter; addition is order-insensitive
		n += c.Value()
	}
	WriteJSON(w, s.b.Stats(n))
}

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. It says nothing about whether queries can be answered — that is
// /readyz's job — so orchestrators restart on /healthz failures and hold
// traffic on /readyz failures, independently.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, s.b.Healthz())
}

// handleReadyz is the readiness probe: 200 when the backend can answer
// queries, 503 with its reason otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body, ready := s.b.Readyz(r.Context())
	if !ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	WriteJSON(w, body)
}
