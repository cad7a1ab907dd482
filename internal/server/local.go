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
	"probgraph/internal/prob"
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

// caching reports whether a request uses the result cache: not when it
// asks no_cache, nor when Options.CacheSize < 0 leaves a cache that holds
// nothing. Either way the request builds no key and counts no miss (a
// canonical code costs a search of its own).
func (l *local) caching(noCache bool) bool { return !noCache && l.cache.cap > 0 }

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
	v, res, cached, err := cachedRead(ctx, l, req, "query", q, opt, 0, (*core.View).QueryCtx)
	if err != nil {
		return nil, err
	}
	return queryResponse(v, res, cached), nil
}

// topkWalk is the one evaluation behind /topk and /topk/walk: the ranked
// query's walk, under the "topk" key, so either endpoint warms the other.
// A walk is a deterministic function of the generation, the query's
// canonical code and every result-affecting option, like a /query result.
func (l *local) topkWalk(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions) (*core.View, *core.TopKWalk, bool, error) {
	return cachedRead(ctx, l, req, "topk", q, opt, req.K,
		func(v *core.View, ctx context.Context, q *graph.Graph, opt core.QueryOptions) (*core.TopKWalk, error) {
			return v.QueryTopKWalk(ctx, q, req.K, opt)
		})
}

// cachedRead is the one cached read of /query, /topk and /topk/walk: under
// the request's deadline it pins the current generation — evaluation, the
// cache key and name resolution all use this one immutable view, so a
// mutation committing mid-query neither blocks the request nor leaks into
// its result — looks the result up under the key of kind and k, and on a
// miss evaluates eval(v, ctx, q, opt) in an inflight slot and stores it —
// a method expression such as (*core.View).QueryCtx. It returns the view,
// the result and whether it was cached. A cached result is shared: callers
// only read it. Cancelled and timed-out evaluations return an error, so
// they never reach the store — a dead query never poisons the cache.
func cachedRead[T any](ctx context.Context, l *local, req *QueryRequest, kind string, q *graph.Graph, opt core.QueryOptions, k int,
	eval func(*core.View, context.Context, *graph.Graph, core.QueryOptions) (T, error)) (*core.View, T, bool, error) {
	ctx, cancel := l.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	v := l.db.View()
	caching := l.caching(req.NoCache)
	var key string
	if caching {
		key = cacheKey(kind, v.Generation, graph.CanonicalCode(q), opt, k)
		if cached, ok := l.cacheGet(v.Generation, key); ok {
			return v, cached.(T), true, nil
		}
	}
	release := l.acquire()
	res, err := eval(v, ctx, q, l.workers(opt))
	release()
	if err != nil {
		var zero T
		return nil, zero, false, err
	}
	if caching {
		l.cache.Put(key, res)
	}
	return v, res, false, nil
}

func (l *local) TopK(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions) (*TopKResponse, error) {
	v, walk, cached, err := l.topkWalk(ctx, req, q, opt)
	if err != nil {
		return nil, err
	}
	out := &TopKResponse{Items: make([]TopKItemJSON, 0, len(walk.Top)), Generation: v.Generation, Cached: cached}
	for _, it := range walk.Top {
		out.Items = append(out.Items, TopKItemJSON{
			Graph: v.GID(it.Graph), Name: v.Graphs[it.Graph].G.Name(), SSP: it.SSP,
		})
	}
	return out, nil
}

func (l *local) Batch(ctx context.Context, req *BatchRequest, qs []*graph.Graph, opt core.QueryOptions) (*BatchResponse, error) {
	ctx, cancel := l.requestContext(ctx, req.TimeoutMS)
	defer cancel()
	// One pinned view serves the whole batch: every member runs against
	// the same generation, whose number also keys each member's cache
	// slot. Batch member i is definitionally Query with seed
	// BatchSeed(seed, i), so it is looked up under that /query key — a
	// /query with the derived seed and a batch share the entry — and only
	// the members that miss are evaluated, each with its own derived seed.
	v := l.db.View()
	caching := l.caching(req.NoCache)
	keys := make([]string, len(qs))
	out := &BatchResponse{Results: make([]*QueryResponse, len(qs))}
	var missed []int
	for i, q := range qs {
		if caching {
			mo := opt
			mo.Seed = core.BatchSeed(opt.Seed, i)
			keys[i] = cacheKey("query", v.Generation, graph.CanonicalCode(q), mo, 0)
			if cached, ok := l.cacheGet(v.Generation, keys[i]); ok {
				out.Results[i] = queryResponse(v, cached.(*core.Result), true)
				continue
			}
		}
		missed = append(missed, i)
	}
	if len(missed) == 0 {
		return out, nil
	}
	release := l.acquire()
	results, err := v.QueryBatchMembersCtx(ctx, qs, missed, l.workers(opt))
	release()
	if err != nil {
		return nil, err
	}
	for _, i := range missed {
		if caching {
			l.cache.Put(keys[i], results[i])
		}
		out.Results[i] = queryResponse(v, results[i], false)
	}
	return out, nil
}

// graphBody reads the pgraph payload of POST /graphs and PUT /graphs/{id},
// answering 400 itself when there is none to read.
func graphBody(w http.ResponseWriter, r *http.Request) (*prob.PGraph, bool) {
	var req AddGraphRequest
	if !decodeJSONBody(w, r, &req) {
		return nil, false
	}
	pg, err := graphPayload(req.Graph, req.GraphText, PGraphFromJSON, pgraphBlocks)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	return pg, true
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

// mutated is the reply of every /graphs mutation. A failure is 404 for an
// unknown or already-removed slot and 422 for anything else (engine
// construction, PMI column computation, a read-only partition); core's
// mutations are atomic, so it published nothing and every cached result
// stays valid for its generation. A success replies with core's record —
// every field of which was captured inside the database's writer lock, so
// concurrent mutations cannot skew the reported generation, shape, or
// compaction marker — counts it and fires the mutation log hook.
func (l *local) mutated(w http.ResponseWriter, op, what string, m core.Mutation, err error) {
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, core.ErrNoSuchGraph) {
			status = http.StatusNotFound
		}
		httpError(w, status, "%s: %v", what, err)
		return
	}
	l.mutations[op].Inc()
	if m.Compacted {
		l.compact.Inc()
	}
	if l.opt.MutationLog != nil {
		l.opt.MutationLog(MutationEvent{Op: op, Mutation: m})
	}
	WriteJSON(w, MutationResponse{
		Op:             op,
		Index:          m.Index,
		Generation:     m.NewGeneration,
		Graphs:         m.LiveGraphs,
		Tombstoned:     m.Tombstoned,
		Compacted:      m.Compacted,
		CompactedSlots: m.CompactedSlots,
	})
}

func (l *local) handleAddGraph(w http.ResponseWriter, r *http.Request) {
	pg, ok := graphBody(w, r)
	if !ok {
		return
	}
	_, m, err := l.db.AddGraph(pg)
	l.mutated(w, "add", "adding graph", m, err)
}

func (l *local) handleRemoveGraph(w http.ResponseWriter, r *http.Request) {
	id, ok := graphID(w, r)
	if !ok {
		return
	}
	m, err := l.db.RemoveGraph(id)
	l.mutated(w, "remove", "removing graph", m, err)
}

func (l *local) handleReplaceGraph(w http.ResponseWriter, r *http.Request) {
	id, ok := graphID(w, r)
	if !ok {
		return
	}
	pg, ok := graphBody(w, r)
	if !ok {
		return
	}
	m, err := l.db.ReplaceGraph(id, pg)
	l.mutated(w, "replace", "replacing graph", m, err)
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
