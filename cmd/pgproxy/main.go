// Command pgproxy is the distributed-serving coordinator: it fronts a
// fleet of pgserve shards, each serving one contiguous global-id range
// partition of the same database (see pgsearch -partition), and exposes
// the single-node query API — answers merged across the fleet are
// bitwise-identical to one pgserve holding the whole database.
//
// Usage:
//
//	pgproxy -shards http://10.0.0.1:8091,http://10.0.0.2:8091 [-addr :8090]
//	        [-shard-timeout 0] [-retries 1]
//	        [-log-format text|json] [-log-level info]
//	        [-pprof-addr 127.0.0.1:6060]
//
// Each -shards entry is url or name=url; names default to shard<i> and
// label errors and metrics. Fleet order must be partition order. A
// -shards entry whose URL lacks a scheme or a host is a flag error:
// pgproxy prints it with the usage text and exits 2, as it does for a
// negative -shard-timeout.
//
// pgproxy is pgserve's handler set (internal/server) over the fleet
// backend (internal/cluster): requests are validated, counted, timed and
// traced, failures written and streams framed by the same code
// (docs/ARCHITECTURE.md, "Wire format"). What differs is the backend:
//
//	POST /query         fan-out to every shard; disjoint answer sets merged
//	                    sorted by global graph id, SSP maps unioned
//	POST /query/stream  per-shard NDJSON streams forwarded as lines arrive,
//	                    then one merged summary line
//	POST /topk          one fan-out: each shard walks the early-termination
//	                    rule over its own schedule (/topk/walk); the walks
//	                    merged into the serial verification order and the
//	                    rule replayed over them, every value in hand
//	POST /batch         one fan-out carrying the whole batch, merged member-wise
//	GET  /metrics       Prometheus exposition (pg_queries_total,
//	                    pg_shard_requests_total, pg_shard_up, ...)
//	GET  /healthz       liveness (the coordinator process is up)
//	GET  /readyz        readiness (every shard's /readyz answers 200)
//
// The routes only an evaluating node has (/topk/walk, /graphs,
// /debug/slowlog) answer 404, and the proxy has no inflight bound. It
// keeps each shard's last reply to a request (256 requests' worth) and
// sends the reply's ETag back as If-None-Match the next time: a shard
// whose database has not moved answers an empty 304, and the kept reply
// is merged as if it had just arrived — never without that 304. A
// no_cache or traced request keeps nothing. A shard that cannot answer —
// down, timed out after -retries, serving a different database
// generation, or answering something that cannot be merged — fails the
// whole request with a structured error naming the shard; the coordinator
// never returns a silently partial answer. Client disconnects and
// timeout_ms propagate into every shard sub-request.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"strings"

	"probgraph/internal/cluster"
	"probgraph/internal/obs"
	"probgraph/internal/server"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	shardsFlag := flag.String("shards", "", "comma-separated shard list, each url or name=url, in partition order")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-attempt deadline for one shard sub-request (0 = none; streams are never bounded by this)")
	retries := flag.Int("retries", 1, "retries per shard sub-request on transport errors (<0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it loopback)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgproxy: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *shardTimeout < 0 {
		fmt.Fprintf(os.Stderr, "pgproxy: -shard-timeout must be >= 0, got %v\n", *shardTimeout)
		os.Exit(2)
	}
	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgproxy: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	coord, err := cluster.New(cluster.Options{
		Shards:       shards,
		ShardTimeout: *shardTimeout,
		Retries:      *retries,
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	for _, sh := range shards {
		logger.Info("shard", "name", sh.Name, "url", sh.Client.URL())
	}

	if err := server.Serve(logger, *addr, *pprofAddr, server.NewOver(coord, coord.Registry()).Handler(),
		"shards", len(shards), "shard_timeout", shardTimeout.String(), "retries", *retries); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// parseShards splits the -shards flag — comma-separated url or name=url
// entries, fleet order preserved — and builds each shard's client. A URL
// needs a scheme and a host.
func parseShards(s string) ([]cluster.Shard, error) {
	var out []cluster.Shard
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, raw := "", part
		if n, u, ok := strings.Cut(part, "="); ok && !strings.Contains(n, "/") {
			name, raw = strings.TrimSpace(n), strings.TrimSpace(u)
		}
		if u, err := url.Parse(raw); err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("-shards: bad URL %q (want scheme://host[:port])", raw)
		}
		out = append(out, cluster.Shard{Name: name, Client: server.NewClient(raw)})
	}
	if len(out) == 0 {
		return nil, errors.New("-shards is required")
	}
	return out, nil
}
