package server

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
)

// local is the Backend of an evaluating node: one resident Database. The
// query path is lock-free: every request pins the database's current
// generation view and evaluates against it, so mutations (POST/DELETE/PUT
// /graphs...) never block a query and a query never observes a
// half-applied mutation. Result-cache entries are keyed by the generation
// they were computed under, which invalidates exactly the stale entries
// (they simply stop being looked up and age out of the LRU); nothing is
// purged on mutation. All randomness stays seeded per request, so a
// response is bitwise-identical to the corresponding library call against
// the same generation. Everything only an evaluating node has lives here:
// the result cache, the inflight semaphore, the default workers and
// deadline, and id/name resolution on the pinned view.
type local struct {
	db    *core.Database
	opt   Options
	cache *lruCache
	sem   chan struct{}

	start    time.Time
	inflight atomic.Int64
	genStats genCounters

	queries   map[string]*obs.Counter // the Server's, for the local-only endpoints
	mutations map[string]*obs.Counter // op -> committed mutations
	compact   *obs.Counter
	slowlog   *obs.Slowlog
}

// localEndpoints are the instrumented endpoints only an evaluating node
// serves: the shard side of the distributed top-k (distrib.go).
var localEndpoints = []string{"topk_walk"}

var mutationOps = []string{"add", "remove", "replace"}

// New serves an indexed database: the shared handler set over the local
// backend, plus the routes only an evaluating node has — /topk/walk, the
// /graphs mutations and /debug/slowlog.
func New(db *core.Database, opt Options) *Server {
	opt = opt.withDefaults()
	l := &local{db: db, opt: opt, cache: newLRUCache(opt.CacheSize), start: time.Now(),
		slowlog: obs.NewSlowlog(opt.SlowlogSize)}
	if opt.MaxInflight > 0 {
		l.sem = make(chan struct{}, opt.MaxInflight)
	}
	s := newServer(l, opt.Metrics, obs.NewPipeline(opt.Metrics), l.slowlog, localEndpoints...)
	l.queries = s.queries
	l.registerMetrics(opt.Metrics)
	opt.Metrics.RegisterGoRuntime()
	s.mux.HandleFunc("/topk/walk", s.instrument("topk_walk", l.handleTopKWalk))
	s.mux.HandleFunc("POST /graphs", l.handleAddGraph)
	s.mux.HandleFunc("DELETE /graphs/{id}", l.handleRemoveGraph)
	s.mux.HandleFunc("PUT /graphs/{id}", l.handleReplaceGraph)
	s.mux.HandleFunc("/debug/slowlog", l.handleSlowlog)
	return s
}

// requestContext derives the evaluation context for one request: the
// request's own context (cancelled when the client disconnects, and — when
// pgserve wires http.Server.BaseContext to its shutdown context — when the
// process is told to stop) bounded by the effective deadline: timeoutMS
// when positive, else the server default. timeoutMS has been validated by
// the request's Check.
func (l *local) requestContext(ctx context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := l.opt.Timeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// workers injects the default worker count into options whose request
// set none.
func (l *local) workers(opt core.QueryOptions) core.QueryOptions {
	if opt.Concurrency == 0 {
		opt.Concurrency = l.opt.Workers
	}
	return opt
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
func (l *local) cacheGet(gen uint64, key string) (any, bool) {
	v, ok := l.cache.Get(key)
	l.genStats.record(gen, ok)
	return v, ok
}

// acquire blocks until an inflight evaluation slot is free.
func (l *local) acquire() func() {
	l.inflight.Add(1)
	if l.sem == nil {
		return func() { l.inflight.Add(-1) }
	}
	l.sem <- struct{}{}
	return func() {
		<-l.sem
		l.inflight.Add(-1)
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

func queryResponse(v *core.View, res *core.Result, cached bool) *QueryResponse {
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
	}
}

func (l *local) Query(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions) (*QueryResponse, error) {
	ctx, cancel := l.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	// Pin the current generation: evaluation, the cache key, and name
	// resolution all use this one immutable view. A mutation committing
	// mid-query neither blocks this request nor leaks into its result.
	v := l.db.View()
	key := cacheKey("query", v.Generation, graph.CanonicalCode(q), opt, 0)
	if !req.NoCache {
		if cached, ok := l.cacheGet(v.Generation, key); ok {
			return queryResponse(v, cached.(*core.Result), true), nil
		}
	}
	release := l.acquire()
	res, err := v.QueryCtx(ctx, q, l.workers(opt))
	release()
	if err != nil {
		// Cancelled and timed-out evaluations return an error, so they can
		// never reach the cache Put below — a dead query never poisons the
		// result cache.
		return nil, err
	}
	if !req.NoCache {
		l.cache.Put(key, res)
	}
	return queryResponse(v, res, false), nil
}

func (l *local) TopK(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions) (*TopKResponse, error) {
	ctx, cancel := l.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	v := l.db.View()
	key := cacheKey("topk", v.Generation, graph.CanonicalCode(q), opt, req.K)
	build := func(items []core.TopKItem, cached bool) *TopKResponse {
		out := &TopKResponse{Items: make([]TopKItemJSON, 0, len(items)), Generation: v.Generation, Cached: cached}
		for _, it := range items {
			out.Items = append(out.Items, TopKItemJSON{
				Graph: v.GID(it.Graph), Name: v.Graphs[it.Graph].G.Name(), SSP: it.SSP,
			})
		}
		return out
	}
	if !req.NoCache {
		if cached, ok := l.cacheGet(v.Generation, key); ok {
			return build(cached.([]core.TopKItem), true), nil
		}
	}
	release := l.acquire()
	items, err := v.QueryTopKCtx(ctx, q, req.K, l.workers(opt))
	release()
	if err != nil {
		return nil, err
	}
	if !req.NoCache {
		l.cache.Put(key, items)
	}
	return build(items, false), nil
}

func (l *local) Batch(ctx context.Context, req *BatchRequest, qs []*graph.Graph, opt core.QueryOptions) (*BatchResponse, error) {
	ctx, cancel := l.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	// One pinned view serves the whole batch: every member runs against
	// the same generation, whose number also keys each member's cache
	// slot. Batch member i is definitionally Query with seed
	// BatchSeed(seed, i), so a subsequent /query with that derived seed
	// (and the same generation) hits the same entry. The batch is served
	// from cache only when every member hits; one miss re-runs the whole
	// batch (QueryBatchCtx derives seeds by position, so partial evaluation
	// would change seeds).
	v := l.db.View()
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
			if !l.cache.Peek(key) {
				allHit = false
				break
			}
		}
		if allHit {
			out := &BatchResponse{}
			for _, key := range keys {
				cv, ok := l.cacheGet(v.Generation, key)
				if !ok { // evicted between Peek and Get: fall through to a full run
					allHit = false
					break
				}
				out.Results = append(out.Results, queryResponse(v, cv.(*core.Result), true))
			}
			if allHit {
				return out, nil
			}
		}
	}
	release := l.acquire()
	results, err := v.QueryBatchCtx(ctx, qs, l.workers(opt))
	release()
	if err != nil {
		return nil, err
	}
	out := &BatchResponse{}
	for i, res := range results {
		if !req.NoCache {
			l.cache.Put(keys[i], res)
		}
		out.Results = append(out.Results, queryResponse(v, res, false))
	}
	return out, nil
}

// mutationResponse assembles the reply from core's mutation record —
// every field of which was captured inside the database's writer lock,
// so concurrent mutations cannot skew the reported generation, shape, or
// compaction marker — and fires the mutation log hook.
func (l *local) mutationResponse(op string, m core.Mutation) MutationResponse {
	resp := MutationResponse{
		Op:             op,
		Index:          m.Index,
		Generation:     m.NewGeneration,
		Graphs:         m.LiveGraphs,
		Tombstoned:     m.Tombstoned,
		Compacted:      m.Compacted,
		CompactedSlots: m.CompactedSlots,
	}
	l.mutations[op].Inc()
	if m.Compacted {
		l.compact.Inc()
	}
	if l.opt.MutationLog != nil {
		l.opt.MutationLog(MutationEvent{Op: op, Mutation: m})
	}
	return resp
}

func (l *local) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	var req AddGraphRequest
	if !decodeJSONBody(w, r, &req) {
		return
	}
	pg, err := parsePGraphPayload(req.Graph, req.GraphText)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	m, err := l.db.AddGraphInfo(pg)
	if err != nil {
		// core.AddGraph is atomic — a failure publishes nothing, so every
		// cached result stays valid for its generation.
		httpError(w, http.StatusUnprocessableEntity, "adding graph: %v", err)
		return
	}
	WriteJSON(w, l.mutationResponse("add", m))
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

func (l *local) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	id, ok := graphID(w, r)
	if !ok {
		return
	}
	m, err := l.db.RemoveGraphInfo(id)
	if err != nil {
		mutationError(w, "removing graph", err)
		return
	}
	WriteJSON(w, l.mutationResponse("remove", m))
}

func (l *local) handleReplaceGraph(w http.ResponseWriter, r *http.Request) {
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
	m, err := l.db.ReplaceGraphInfo(id, pg)
	if err != nil {
		mutationError(w, "replacing graph", err)
		return
	}
	WriteJSON(w, l.mutationResponse("replace", m))
}

func (l *local) Healthz() any {
	v := l.db.View()
	return map[string]any{"status": "ok", "graphs": v.NumLive(), "generation": v.Generation}
}

// Readyz is ready once the database is loaded with at least one live
// graph (the snapshot parsed and this server can answer queries).
func (l *local) Readyz(context.Context) (any, bool) {
	v := l.db.View()
	if v.NumLive() == 0 {
		return map[string]any{"ready": false, "error": "no live graphs"}, false
	}
	return map[string]any{
		"ready": true, "graphs": v.NumLive(), "generation": v.Generation,
		"partitioned": v.Partitioned(),
	}, true
}

// registerMetrics adds what only an evaluating node reports: mutation
// counters and the scrape-time families, read from the live sources
// (cache, inflight count, pinned view) at each scrape.
func (l *local) registerMetrics(reg *obs.Registry) {
	l.mutations = make(map[string]*obs.Counter, len(mutationOps))
	for _, op := range mutationOps {
		l.mutations[op] = reg.Counter("pg_mutations_total",
			"Committed mutations by operation.", "op", op)
	}
	l.compact = reg.Counter("pg_compactions_total",
		"Auto-compactions triggered by mutations (graph indices renumbered).")
	reg.Collect("pg_inflight_queries", "gauge",
		"Evaluations currently running or waiting on the inflight semaphore.",
		func(emit func(string, float64)) { emit("", float64(l.inflight.Load())) })
	reg.Collect("pg_cache_hits_total", "counter",
		"Result-cache hits.", func(emit func(string, float64)) {
			h, _ := l.cache.Counters()
			emit("", float64(h))
		})
	reg.Collect("pg_cache_misses_total", "counter",
		"Result-cache misses.", func(emit func(string, float64)) {
			_, mi := l.cache.Counters()
			emit("", float64(mi))
		})
	reg.Collect("pg_cache_entries", "gauge",
		"Result-cache resident entries.",
		func(emit func(string, float64)) { emit("", float64(l.cache.Len())) })
	reg.Collect("pg_cache_generation_hits_total", "counter",
		"Result-cache hits by database generation (recent generations only).",
		func(emit func(string, float64)) {
			for _, e := range l.genStats.snapshotSorted() {
				emit(obs.Labels("generation", e.Gen), float64(e.Hits))
			}
		})
	reg.Collect("pg_cache_generation_misses_total", "counter",
		"Result-cache misses by database generation (recent generations only).",
		func(emit func(string, float64)) {
			for _, e := range l.genStats.snapshotSorted() {
				emit(obs.Labels("generation", e.Gen), float64(e.Misses))
			}
		})
	reg.Collect("pg_db_generation", "gauge",
		"Current database generation.", func(emit func(string, float64)) {
			emit("", float64(l.db.View().Generation))
		})
	reg.Collect("pg_db_graphs", "gauge",
		"Database slots by state.", func(emit func(string, float64)) {
			v := l.db.View()
			emit(obs.Labels("state", "live"), float64(v.NumLive()))
			emit(obs.Labels("state", "tombstoned"), float64(v.Tombstones()))
		})
	reg.Collect("pg_index_bytes", "gauge",
		"PMI index size in bytes.", func(emit func(string, float64)) {
			emit("", float64(l.db.View().Build.IndexSizeBytes))
		})
	reg.Collect("pg_uptime_seconds", "gauge",
		"Seconds since the server started.", func(emit func(string, float64)) {
			emit("", time.Since(l.start).Seconds())
		})
	reg.Collect("pg_max_inflight", "gauge",
		"Configured inflight-query bound (0 = unbounded).",
		func(emit func(string, float64)) {
			mi := l.opt.MaxInflight
			if mi < 0 {
				mi = 0
			}
			emit("", float64(mi))
		})
	reg.Collect("pg_workers_default", "gauge",
		"Default per-query worker count (-1 = GOMAXPROCS).",
		func(emit func(string, float64)) {
			w := l.opt.Workers
			if w < 0 {
				w = runtime.GOMAXPROCS(0)
			}
			emit("", float64(w))
		})
}

// handleSlowlog serves the N slowest queries (with span trees), slowest
// first.
func (l *local) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, map[string]any{"slowest": l.slowlog.Snapshot()})
}
