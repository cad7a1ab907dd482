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
// label errors, metrics, and /stats health records. Fleet order must be
// partition order.
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
//	POST /topk          shard bound schedules merged into the serial
//	                    verification order, early-termination rule replayed,
//	                    SSPs fetched from each candidate's owning shard
//	POST /batch         one fan-out carrying the whole batch, merged member-wise
//	GET  /stats         per-shard health records + coordinator counters
//	GET  /metrics       Prometheus exposition (pg_queries_total,
//	                    pg_shard_requests_total, pg_shard_up, ...)
//	GET  /healthz       liveness (the coordinator process is up)
//	GET  /readyz        readiness (every shard's /readyz answers 200)
//
// The routes only an evaluating node has (/topk/bounds, /topk/verify,
// /graphs, /debug/slowlog) answer 404; the proxy keeps no result cache
// and no inflight bound. A shard that cannot answer — down, timed out
// after -retries, serving a different database generation, or answering
// something that cannot be merged — fails the whole request with a
// structured error naming the shard; the coordinator never returns a
// silently partial answer. Client disconnects and timeout_ms propagate
// into every shard sub-request.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
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

	shards, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgproxy: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	coord, err := cluster.New(cluster.Options{
		Shards:       shards,
		ShardTimeout: *shardTimeout,
		Retries:      effectiveRetries(*retries),
	})
	if err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	for _, sh := range shards {
		logger.Info("shard", "name", sh.Name, "url", sh.URL)
	}

	if err := server.Serve(logger, *addr, *pprofAddr, server.NewOver(coord, coord.Registry()).Handler(),
		"shards", len(shards), "shard_timeout", shardTimeout.String(), "retries", *retries); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// parseShards splits the -shards flag: comma-separated url or name=url
// entries, fleet order preserved.
func parseShards(s string) ([]cluster.Shard, error) {
	if strings.TrimSpace(s) == "" {
		return nil, errors.New("-shards is required")
	}
	var out []cluster.Shard
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var sh cluster.Shard
		if name, url, ok := strings.Cut(part, "="); ok && !strings.Contains(name, "/") {
			sh = cluster.Shard{Name: strings.TrimSpace(name), URL: strings.TrimSpace(url)}
		} else {
			sh = cluster.Shard{URL: part}
		}
		out = append(out, sh)
	}
	if len(out) == 0 {
		return nil, errors.New("-shards is required")
	}
	return out, nil
}

// effectiveRetries maps the flag onto cluster.Options.Retries, whose zero
// value means "default": the flag's explicit 0 must mean no retries.
func effectiveRetries(n int) int {
	if n <= 0 {
		return -1
	}
	return n
}
