// Command pgserve is a long-running T-PS query service: it loads an
// indexed database once and answers queries over an HTTP/JSON API, running
// each request on the engine's deterministic worker pool and serving
// repeated queries from an LRU result cache.
//
// Usage:
//
//	pgserve -snapshot db.idx [-addr :8091] [-cache 256] [-workers -1]
//	        [-inflight 0] [-timeout 0] [-compact-threshold 0.5]
//	        [-log-format text|json] [-log-level info] [-slowlog 32]
//	        [-pprof-addr 127.0.0.1:6060]
//	pgserve -db db.pgraph ...   (build the index at startup instead)
//
// With -snapshot (written by pgsearch -savesnap, pggen -savesnap, or
// probgraph.Database.SaveAs/SaveFile) there is no feature mining and no PMI
// bound computation at startup. Binary (v4) snapshots are memory-mapped:
// startup does no full-corpus parse, pages fault in on demand, and
// multiple pgserve processes serving the same file share the page cache.
// Text snapshots are parsed once. Inference engines build lazily on first
// use either way. With -db the full index is built first (the offline
// step the snapshot amortizes away).
//
// Endpoints (JSON bodies; internal/server owns the wire format — request
// and response types, the one error body, NDJSON framing — described in
// docs/ARCHITECTURE.md, "Wire format"):
//
//	POST /query         one T-PS query: graph|graph_text, epsilon, delta,
//	                    verifier, plain, seed, workers, no_cache, timeout_ms
//	POST /query/stream  same query, NDJSON delivery: one line per verified
//	                    match as verification admits it, then a summary
//	                    line with the sorted answer set
//	POST /topk          ranked top-k variant (adds k)
//	POST /batch         many queries, one option set, per-member derived seeds
//	POST   /graphs      incremental AddGraph ingestion (pgraph JSON or text)
//	DELETE /graphs/{id} RemoveGraph: tombstones the slot, indices stay stable
//	PUT    /graphs/{id} ReplaceGraph: swaps the slot's graph (re-scored JPTs)
//	                    Each /graphs reply reports the committed mutation:
//	                    op, index, generation, graphs (live), tombstoned,
//	                    and compacted/compacted_slots when it compacted.
//	GET  /metrics       Prometheus text exposition: query, cache, inflight,
//	                    generation, live/tombstoned and index-size counters
//	GET  /debug/slowlog the -slowlog slowest queries with their span trees
//	GET  /healthz       liveness probe
//
// Observability: every query endpoint carries a per-request trace — the
// response's X-PG-Trace-Id header names it, and trace=1 (URL knob or
// request body field) inlines the span tree (struct filter → PMI prune →
// verify, with per-shard scan spans) in the JSON reply. /metrics serves
// the full counter/histogram registry; -pprof-addr exposes net/http/pprof
// on a separate listener (never on the public API address). Logs are
// structured (log/slog); -log-format json emits one JSON object per line.
//
// The database is generation-numbered: every query pins the current view,
// so mutations never block queries and a query never sees a half-applied
// mutation; result-cache entries are keyed by generation (no purge on
// mutation). While the cache is on, every /query, /topk, /topk/walk and
// /batch reply carries an ETag naming this process and the generation
// that produced it; a request sent back with that tag as If-None-Match
// gets an empty 304, without its body being read, while the generation
// stands — the fleet coordinator's revalidation of the replies it keeps.
// One structured log line records each mutation's record: its
// old→new generation, resulting shape and any compaction. -compact-threshold controls auto-compaction: once more than
// that fraction of slots is tombstoned, the triggering mutation also
// compacts the database — dropping tombstones and renumbering graph
// indices (its response carries "compacted": true and the slot count
// reclaimed).
//
// Every request runs under a context: the client disconnecting, the
// request's timeout_ms (or the -timeout default) expiring, or pgserve
// being told to shut down all cancel the in-flight evaluation at candidate
// granularity. Expired deadlines answer a structured HTTP 504; shutdown no
// longer waits for a full database scan to finish.
//
// Every response is bitwise-identical to the corresponding library call
// with the same seed; workers changes latency, never answers, and a
// stream's sorted answer set equals /query's. Tracing and metrics are
// purely observational — a traced query returns the same bytes as an
// untraced one (minus the trace field itself).
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"time"

	"probgraph"
	"probgraph/internal/core"
	"probgraph/internal/obs"
	"probgraph/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run executes pgserve and returns its exit code: 1 when the database
// cannot be loaded or the server fails, 2 on a flag refusal, which comes
// before any file is opened.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("pgserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	snapshot := fs.String("snapshot", "", "snapshot file from pgsearch -savesnap / pggen -savesnap")
	dbPath := fs.String("db", "", "dataset file from pggen (index built at startup)")
	addr := fs.String("addr", ":8091", "listen address")
	cacheSize := fs.Int("cache", server.DefaultCacheSize, "result cache capacity in entries (<0 disables it, and the ETags that let a client revalidate reads)")
	workers := fs.Int("workers", -1, "default per-query worker pool (<0 = GOMAXPROCS)")
	inflight := fs.Int("inflight", 0, "max concurrently evaluated queries (0 = 2×GOMAXPROCS, <0 unbounded)")
	timeout := fs.Duration("timeout", 0, "default per-request evaluation deadline (0 = none; requests override via timeout_ms)")
	compactThreshold := fs.Float64("compact-threshold", 0.5,
		"auto-compact once tombstoned/total slots exceeds this fraction (renumbers graph indices; <=0 disables)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	slowlogSize := fs.Int("slowlog", 32, "slow-query ring size served at /debug/slowlog (<0 disables)")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it loopback)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logger, err := obs.NewLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(stderr, "pgserve: %v\n", err)
		return 2
	}
	if (*snapshot == "") == (*dbPath == "") {
		fmt.Fprintln(stderr, "pgserve: give exactly one of -snapshot or -db")
		fs.Usage()
		return 2
	}
	if *timeout < 0 {
		fmt.Fprintf(stderr, "pgserve: -timeout must be >= 0, got %v\n", *timeout)
		return 2
	}
	if math.IsNaN(*compactThreshold) || math.IsInf(*compactThreshold, 0) || *compactThreshold > 1 {
		fmt.Fprintf(stderr, "pgserve: -compact-threshold must be a finite number <= 1, got %v\n", *compactThreshold)
		return 2
	}

	slog.SetDefault(logger)
	fatal := func(err error) int {
		logger.Error("fatal", "err", err)
		return 1
	}

	reg := obs.NewRegistry()
	loadGauge := reg.Gauge("pg_snapshot_load_seconds",
		"Time spent loading the snapshot (or building the index) at startup.")

	start := time.Now()
	var db *core.Database
	switch {
	case *snapshot != "":
		db, err = probgraph.OpenSnapshot(*snapshot)
		if err != nil {
			return fatal(err)
		}
		loadGauge.Set(time.Since(start).Seconds())
		logger.Info("opened snapshot (no mining)",
			"path", *snapshot, "graphs", db.Len(), "pmi_features", db.View().PMI.NumFeatures(),
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	default:
		f, err := os.Open(*dbPath)
		if err != nil {
			return fatal(err)
		}
		raw, err := probgraph.LoadDataset(f)
		f.Close()
		if err != nil {
			return fatal(err)
		}
		db, err = probgraph.NewDatabase(raw.Graphs, probgraph.DefaultBuildOptions())
		if err != nil {
			return fatal(err)
		}
		loadGauge.Set(time.Since(start).Seconds())
		logger.Info("indexed dataset",
			"path", *dbPath, "graphs", db.Len(), "pmi_features", db.View().PMI.NumFeatures(),
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	}

	db.SetCompactThreshold(*compactThreshold)
	srv := server.New(db, server.Options{
		CacheSize: *cacheSize, Workers: *workers, MaxInflight: *inflight,
		Timeout:     *timeout,
		Metrics:     reg,
		SlowlogSize: *slowlogSize,
		// One structured line per committed mutation: old→new generation,
		// resulting shape, and whether auto-compaction renumbered indices.
		MutationLog: func(ev server.MutationEvent) {
			attrs := []any{
				"op", ev.Op, "index", ev.Index,
				"old_generation", ev.OldGeneration, "new_generation", ev.NewGeneration,
				"live", ev.LiveGraphs, "tombstoned", ev.Tombstoned,
				"compacted", ev.Compacted,
			}
			if ev.Compacted {
				attrs = append(attrs, "compacted_slots", ev.CompactedSlots)
			}
			logger.Info("mutation", attrs...)
		},
	})

	if err := server.Serve(logger, *addr, *pprofAddr, srv.Handler(),
		"cache", *cacheSize, "workers", *workers, "timeout", timeout.String()); err != nil {
		return fatal(err)
	}
	return 0
}
