package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
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

// MutationEvent describes one committed mutation for logging.
type MutationEvent struct {
	Op             string // "add", "remove", "replace"
	Index          int    // slot the mutation targeted (or created)
	OldGeneration  uint64
	NewGeneration  uint64
	LiveGraphs     int
	Tombstoned     int
	Compacted      bool // the mutation triggered auto-compaction
	CompactedSlots int  // tombstoned slots reclaimed when Compacted
}

// Server answers T-PS queries over one resident Database. The query path
// is lock-free: every request pins the database's current generation view
// and evaluates against it, so mutations (POST/DELETE/PUT /graphs...)
// never block a query and a query never observes a half-applied mutation
// — the old RWMutex is gone. Result-cache entries are keyed by the
// generation they were computed under, which invalidates exactly the
// stale entries (they simply stop being looked up and age out of the
// LRU); nothing is purged on mutation. All randomness stays seeded per
// request, so a response is bitwise-identical to the corresponding
// library call against the same generation.
type Server struct {
	db    *core.Database
	opt   Options
	cache *lruCache
	sem   chan struct{}

	start    time.Time
	inflight atomic.Int64
	genStats genCounters
	metrics  *serverMetrics
	mux      *http.ServeMux
}

// New wraps an indexed database in a Server.
func New(db *core.Database, opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		db:    db,
		opt:   opt,
		cache: newLRUCache(opt.CacheSize),
		start: time.Now(),
		mux:   http.NewServeMux(),
	}
	if opt.MaxInflight > 0 {
		s.sem = make(chan struct{}, opt.MaxInflight)
	}
	s.metrics = newServerMetrics(s, opt.Metrics, opt.SlowlogSize)
	instrumented := func(endpoint string, h http.HandlerFunc) http.HandlerFunc {
		return Instrument(endpoint, s.metrics.latency[endpoint], s.metrics.pipeline, s.metrics.slowlog, h)
	}
	s.mux.HandleFunc("/query", instrumented("query", s.handleQuery))
	s.mux.HandleFunc("/query/stream", instrumented("stream", s.handleQueryStream))
	s.mux.HandleFunc("/topk", instrumented("topk", s.handleTopK))
	s.mux.HandleFunc("/topk/bounds", instrumented("topk_bounds", s.handleTopKBounds))
	s.mux.HandleFunc("/topk/verify", instrumented("topk_verify", s.handleTopKVerify))
	s.mux.HandleFunc("/batch", instrumented("batch", s.handleBatch))
	s.mux.HandleFunc("POST /graphs", s.handleAddGraph)
	s.mux.HandleFunc("DELETE /graphs/{id}", s.handleRemoveGraph)
	s.mux.HandleFunc("PUT /graphs/{id}", s.handleReplaceGraph)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", MetricsHandler(s.metrics.reg))
	s.mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry returns the metrics registry the server renders at /metrics.
func (s *Server) Registry() *obs.Registry { return s.metrics.reg }

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

// genCounters tracks per-generation result-cache hit/miss counts,
// retaining the most recent maxTrackedGens generations.
type genCounters struct {
	mu sync.Mutex
	m  map[uint64]*GenCacheJSON
}

const maxTrackedGens = 16

func (g *genCounters) record(gen uint64, hit bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[uint64]*GenCacheJSON)
	}
	c := g.m[gen]
	if c == nil {
		c = &GenCacheJSON{}
		g.m[gen] = c
		for len(g.m) > maxTrackedGens {
			oldest := gen
			for k := range g.m { //pgvet:sorted min-find over keys; the result is order-insensitive
				if k < oldest {
					oldest = k
				}
			}
			delete(g.m, oldest)
		}
	}
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
}

func (g *genCounters) snapshot() map[string]GenCacheJSON {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]GenCacheJSON, len(g.m))
	for gen, c := range g.m { //pgvet:sorted builds a map rendered by encoding/json, which sorts keys
		out[strconv.FormatUint(gen, 10)] = *c
	}
	return out
}

// genCacheEntry is one generation's counters with its label pre-rendered,
// ordered for byte-stable /metrics exposition.
type genCacheEntry struct {
	Gen string
	GenCacheJSON
}

// snapshotSorted returns the tracked per-generation counters in ascending
// generation order. /metrics renders from this: Prometheus exposition is
// part of the byte-stable output contract, so emission order cannot
// depend on map iteration.
func (g *genCounters) snapshotSorted() []genCacheEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	gens := make([]uint64, 0, len(g.m))
	for gen := range g.m { //pgvet:sorted keys are collected then sorted immediately below
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	out := make([]genCacheEntry, 0, len(gens))
	for _, gen := range gens {
		out = append(out, genCacheEntry{Gen: strconv.FormatUint(gen, 10), GenCacheJSON: *g.m[gen]})
	}
	return out
}

// requestContext derives the evaluation context for one request: the
// request's own context (cancelled when the client disconnects, and — when
// pgserve wires http.Server.BaseContext to its shutdown context — when the
// process is told to stop) bounded by the effective deadline: timeoutMS
// when positive, else the server default. timeoutMS has been validated by
// the request's Check.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.opt.Timeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(r.Context(), d)
	}
	return r.Context(), func() {}
}

// accept is the shared prologue (Accept) plus the one default only an
// evaluating node injects: its worker count, for requests that set none.
func accept[Q any](s *Server, w http.ResponseWriter, r *http.Request, req any, check func() (Q, core.QueryOptions, error)) (Q, core.QueryOptions, bool) {
	q, opt, ok := Accept(w, r, req, check)
	if opt.Concurrency == 0 {
		opt.Concurrency = s.opt.Workers
	}
	return q, opt, ok
}

// cacheKey identifies one deterministic query outcome: the generation it
// was computed under, the query's canonical code, and every
// result-affecting option. Keying by generation is what replaces the old
// purge-on-insert: a mutation bumps the generation, so every existing
// entry simply stops being addressable and ages out of the LRU, while
// queries against a pinned older view would never be served a younger
// generation's result. Workers is excluded — the engine guarantees
// identical results at any concurrency — so requests differing only in
// pool size share an entry. Isomorphic query presentations share an entry
// too (the canonical code is a complete isomorphism invariant); the
// cached result is the one computed for the first-seen presentation.
func cacheKey(kind string, gen uint64, code string, opt core.QueryOptions, k int) string {
	return kind + "\x00" + strconv.FormatUint(gen, 10) + "\x00" + code + "\x00" +
		strconv.FormatFloat(opt.Epsilon, 'x', -1, 64) + "\x00" +
		strconv.Itoa(opt.Delta) + "\x00" +
		strconv.Itoa(int(opt.Verifier)) + "\x00" +
		strconv.FormatBool(opt.OptBounds) + "\x00" +
		strconv.FormatInt(opt.Seed, 10) + "\x00" +
		strconv.Itoa(k)
}

// cacheGet looks the key up and feeds the per-generation counters.
func (s *Server) cacheGet(gen uint64, key string) (any, bool) {
	v, ok := s.cache.Get(key)
	s.genStats.record(gen, ok)
	return v, ok
}

// acquire blocks until an inflight evaluation slot is free.
func (s *Server) acquire() func() {
	s.inflight.Add(1)
	if s.sem == nil {
		return func() { s.inflight.Add(-1) }
	}
	s.sem <- struct{}{}
	return func() {
		<-s.sem
		s.inflight.Add(-1)
	}
}

// names resolves answer indices against the view the query ran on — never
// the current database, which a concurrent mutation may have moved on.
func names(v *core.View, answers []int) []string {
	out := make([]string, len(answers))
	for i, gi := range answers {
		out[i] = v.Graphs[gi].G.Name()
	}
	return out
}

func queryResponse(v *core.View, res *core.Result, cached bool, elapsed time.Duration) *QueryResponse {
	answers := res.Answers
	ssp := res.SSP
	if v.Partitioned() {
		// Graph indices leave the server as global ids, so a shard's
		// answers and SSP keys are directly comparable — and mergeable —
		// with the full database's. Fresh slices/maps are built: res may
		// live in the result cache and must never be mutated.
		answers = make([]int, len(res.Answers))
		for i, gi := range res.Answers {
			answers[i] = v.GID(gi)
		}
		ssp = make(map[int]float64, len(res.SSP))
		//pgvet:sorted map-to-map rekeying; result is order-independent
		for gi, p := range res.SSP {
			ssp[v.GID(gi)] = p
		}
	}
	if answers == nil {
		answers = []int{}
	}
	return &QueryResponse{
		Answers:    answers,
		Names:      names(v, res.Answers),
		SSP:        ssp,
		Stats:      statsJSON(res.Stats),
		Generation: v.Generation,
		Cached:     cached,
		TimeMS:     float64(elapsed.Microseconds()) / 1000,
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	q, opt, ok := accept(s, w, r, &req, req.Check)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()

	// Pin the current generation: evaluation, the cache key, and name
	// resolution all use this one immutable view. A mutation committing
	// mid-query neither blocks this request nor leaks into its result.
	v := s.db.View()
	s.metrics.queries["query"].Inc()
	key := cacheKey("query", v.Generation, graph.CanonicalCode(q), opt, 0)
	wantTrace := TraceWanted(r, req.Trace)
	if !req.NoCache {
		if cached, ok := s.cacheGet(v.Generation, key); ok {
			resp := queryResponse(v, cached.(*core.Result), true, time.Since(start))
			if wantTrace {
				resp.Trace = TraceTree(r)
			}
			WriteJSON(w, resp)
			return
		}
	}
	release := s.acquire()
	res, err := v.QueryCtx(ctx, q, opt)
	release()
	if err != nil {
		// Cancelled and timed-out evaluations return an error, so they can
		// never reach the cache Put below — a dead query never poisons the
		// result cache.
		ErrorFrom("query failed", err).Write(w)
		return
	}
	if !req.NoCache {
		s.cache.Put(key, res)
	}
	resp := queryResponse(v, res, false, time.Since(start))
	if wantTrace {
		resp.Trace = TraceTree(r)
	}
	WriteJSON(w, resp)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	q, opt, ok := accept(s, w, r, &req, req.CheckTopK)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()

	v := s.db.View()
	s.metrics.queries["topk"].Inc()
	key := cacheKey("topk", v.Generation, graph.CanonicalCode(q), opt, req.K)
	wantTrace := TraceWanted(r, req.Trace)

	build := func(items []core.TopKItem, cached bool) TopKResponse {
		out := TopKResponse{Items: []TopKItemJSON{}, Generation: v.Generation, Cached: cached,
			TimeMS: float64(time.Since(start).Microseconds()) / 1000}
		for _, it := range items {
			out.Items = append(out.Items, TopKItemJSON{
				Graph: v.GID(it.Graph), Name: v.Graphs[it.Graph].G.Name(), SSP: it.SSP,
			})
		}
		if wantTrace {
			out.Trace = TraceTree(r)
		}
		return out
	}
	if !req.NoCache {
		if cached, ok := s.cacheGet(v.Generation, key); ok {
			WriteJSON(w, build(cached.([]core.TopKItem), true))
			return
		}
	}
	release := s.acquire()
	items, err := v.QueryTopKCtx(ctx, q, req.K, opt)
	release()
	if err != nil {
		ErrorFrom("topk failed", err).Write(w)
		return
	}
	if !req.NoCache {
		s.cache.Put(key, items)
	}
	WriteJSON(w, build(items, false))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	qs, opt, ok := accept(s, w, r, &req, req.Check)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	start := time.Now()

	// One pinned view serves the whole batch: every member runs against
	// the same generation, whose number also keys each member's cache
	// slot. Batch member i is definitionally Query with seed
	// BatchSeed(seed, i), so a subsequent /query with that derived seed
	// (and the same generation) hits the same entry. The batch is served
	// from cache only when every member hits; one miss re-runs the whole
	// batch (QueryBatchCtx derives seeds by position, so partial evaluation
	// would change seeds).
	v := s.db.View()
	s.metrics.queries["batch"].Add(int64(len(qs)))
	keys := make([]string, len(qs))
	for i, q := range qs {
		mo := opt
		mo.Seed = core.BatchSeed(opt.Seed, i)
		keys[i] = cacheKey("query", v.Generation, graph.CanonicalCode(q), mo, 0)
	}

	if !req.NoCache {
		// Probe with Peek first: a probe that ends in a miss must not
		// inflate the hit counter or LRU-promote entries the batch then
		// recomputes anyway. Only an all-present batch commits to Gets.
		allHit := true
		for _, key := range keys {
			if !s.cache.Peek(key) {
				allHit = false
				break
			}
		}
		if allHit {
			cached := make([]*core.Result, len(qs))
			for i, key := range keys {
				cv, ok := s.cacheGet(v.Generation, key)
				if !ok { // evicted between Peek and Get: fall through to a full run
					allHit = false
					break
				}
				cached[i] = cv.(*core.Result)
			}
			if allHit {
				out := BatchResponse{TimeMS: float64(time.Since(start).Microseconds()) / 1000}
				for _, res := range cached {
					out.Results = append(out.Results, queryResponse(v, res, true, 0))
				}
				if TraceWanted(r, req.Trace) {
					out.Trace = TraceTree(r)
				}
				WriteJSON(w, out)
				return
			}
		}
	}
	release := s.acquire()
	results, err := v.QueryBatchCtx(ctx, qs, opt)
	release()
	if err != nil {
		ErrorFrom("batch failed", err).Write(w)
		return
	}
	out := BatchResponse{TimeMS: float64(time.Since(start).Microseconds()) / 1000}
	for i, res := range results {
		if !req.NoCache {
			s.cache.Put(keys[i], res)
		}
		out.Results = append(out.Results, queryResponse(v, res, false, 0))
	}
	if TraceWanted(r, req.Trace) {
		out.Trace = TraceTree(r)
	}
	WriteJSON(w, out)
}

// mutationResponse assembles the reply from core's mutation record —
// every field of which was captured inside the database's writer lock,
// so concurrent mutations cannot skew the reported generation, shape, or
// compaction marker — and fires the mutation log hook.
func (s *Server) mutationResponse(op string, m core.Mutation) MutationResponse {
	resp := MutationResponse{
		Op:             op,
		Index:          m.Index,
		Generation:     m.NewGeneration,
		Graphs:         m.LiveGraphs,
		Tombstoned:     m.Tombstoned,
		Compacted:      m.Compacted,
		CompactedSlots: m.CompactedSlots,
	}
	s.metrics.mutations[op].Inc()
	if m.Compacted {
		s.metrics.compact.Inc()
	}
	if s.opt.MutationLog != nil {
		s.opt.MutationLog(MutationEvent{
			Op: op, Index: m.Index,
			OldGeneration: m.OldGeneration, NewGeneration: m.NewGeneration,
			LiveGraphs: m.LiveGraphs, Tombstoned: m.Tombstoned,
			Compacted: m.Compacted, CompactedSlots: m.CompactedSlots,
		})
	}
	return resp
}

func (s *Server) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	var req AddGraphRequest
	if !decodeJSONBody(w, r, &req) {
		return
	}
	pg, err := parsePGraphPayload(req.Graph, req.GraphText)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := s.db.AddGraphInfo(pg)
	if err != nil {
		// core.AddGraph is atomic — a failure publishes nothing, so every
		// cached result stays valid for its generation.
		httpError(w, http.StatusUnprocessableEntity, "adding graph: %v", err)
		return
	}
	WriteJSON(w, s.mutationResponse("add", m))
}

// graphID parses the {id} path segment of /graphs/{id}.
func graphID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		httpError(w, http.StatusBadRequest, "bad graph id %q", r.PathValue("id"))
		return 0, false
	}
	return id, true
}

// mutationError maps a failed remove/replace to a status: unknown or
// already-removed slots are 404, everything else (engine construction,
// PMI column computation) an evaluation failure, 422.
func mutationError(w http.ResponseWriter, what string, err error) {
	status := http.StatusUnprocessableEntity
	if errors.Is(err, core.ErrNoSuchGraph) {
		status = http.StatusNotFound
	}
	httpError(w, status, "%s: %v", what, err)
}

func (s *Server) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	id, ok := graphID(w, r)
	if !ok {
		return
	}
	m, err := s.db.RemoveGraphInfo(id)
	if err != nil {
		mutationError(w, "removing graph", err)
		return
	}
	WriteJSON(w, s.mutationResponse("remove", m))
}

func (s *Server) handleReplaceGraph(w http.ResponseWriter, r *http.Request) {
	id, ok := graphID(w, r)
	if !ok {
		return
	}
	var req AddGraphRequest
	if !decodeJSONBody(w, r, &req) {
		return
	}
	pg, err := parsePGraphPayload(req.Graph, req.GraphText)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := s.db.ReplaceGraphInfo(id, pg)
	if err != nil {
		mutationError(w, "replacing graph", err)
		return
	}
	WriteJSON(w, s.mutationResponse("replace", m))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.db.View()
	hits, misses := s.cache.Counters()
	resp := StatsResponse{
		Graphs:           v.Len(),
		LiveGraphs:       v.NumLive(),
		TombstonedGraphs: v.Tombstones(),
		Generation:       v.Generation,
		IndexBytes:       v.Build.IndexSizeBytes,
		UptimeMS:         float64(time.Since(s.start).Microseconds()) / 1000,
		Queries:          s.metrics.totalQueries(),
		Inflight:         s.inflight.Load(),
		CacheHits:        hits,
		CacheMisses:      misses,
		CacheEntries:     s.cache.Len(),
		CacheCap:         s.opt.CacheSize,
		CacheGenerations: s.genStats.snapshot(),
		Workers:          s.opt.Workers,

		DefaultTimeoutMS: float64(s.opt.Timeout.Microseconds()) / 1000,
	}
	if v.PMI != nil {
		resp.PMIFeatures = v.PMI.NumFeatures()
	}
	WriteJSON(w, resp)
}

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. It says nothing about whether queries can be answered — that is
// /readyz's job — so orchestrators restart on /healthz failures and hold
// traffic on /readyz failures, independently.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	v := s.db.View()
	WriteJSON(w, map[string]any{"status": "ok", "graphs": v.NumLive(), "generation": v.Generation})
}

// handleReadyz is the readiness probe: 200 once the database is loaded
// with at least one live graph (the snapshot parsed and this server can
// answer queries), 503 otherwise. The coordinator's /readyz additionally
// requires every shard to be ready — see internal/cluster.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	v := s.db.View()
	if v.NumLive() == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"ready": false, "error": "no live graphs"})
		return
	}
	WriteJSON(w, map[string]any{
		"ready": true, "graphs": v.NumLive(), "generation": v.Generation,
		"partitioned": v.Partitioned(),
	})
}
