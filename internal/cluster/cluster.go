// Package cluster is the coordinator side of distributed serving: it fans
// T-PS queries out to a fleet of pgserve shards — each serving one
// contiguous global-id range partition of the same database (see
// core.PartitionRanges / SaveRange) — and merges the shard responses into
// answers that are bitwise-identical to a single-node run over the full
// database.
//
// The determinism contract stacks three layers:
//
//  1. Partition soundness (core.View.Range): the structural filter is
//     exact, so a shard's candidate set is exactly the global candidate
//     set intersected with its range, and the carried-over count rows
//     and PMI entries make every per-candidate decision on the shard
//     bitwise equal to the full database's.
//  2. Global-id seeding: every randomized per-candidate step seeds from
//     the graph's global id, so a shard computes the very SSP estimate
//     the single node computes for the same graph.
//  3. Deterministic merges (this package): /query and /batch concatenate
//     disjoint answer sets sorted by global id; /topk runs the single
//     node's own early-termination rule, core.ReplayTopK, over the merged
//     bound schedules, fetching SSPs from the owning shards;
//     /query/stream forwards shard match lines and re-derives the sorted
//     summary.
//
// Failure semantics: a shard that cannot answer (down, timed out after
// retries, wrong generation, an answer that cannot be merged — a global id
// another shard answered or streamed too, say) fails the whole request
// with a structured error naming the shard — never a silently partial
// answer, or a doubled one. The Coordinator is a server.Backend: the
// HTTP side — request validation, counting, timing, tracing, the error
// body, NDJSON framing — is internal/server's one handler set, which
// pgproxy serves over it with server.NewOver, and the shard client is
// internal/server's Client; this package only decides what to send where
// and how to merge. Client cancellation propagates: every shard
// sub-request derives from the incoming request's context.
package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// Shard names one member of the fleet.
type Shard struct {
	Name string // label used in errors, metrics, and health reports
	URL  string // base URL of the shard's pgserve (e.g. http://10.0.0.1:8091)
}

// Options configures a Coordinator.
type Options struct {
	// Shards is the fleet, in partition order. At least one is required;
	// names must be unique (empty names default to shard<i>).
	Shards []Shard
	// ShardTimeout bounds each attempt of one shard sub-request. 0 means
	// no per-attempt bound — the request context (client deadline /
	// disconnect) still applies.
	ShardTimeout time.Duration
	// Retries is how many times a failed shard sub-request is retried
	// (transport errors only — an HTTP error status is an answer, not a
	// flaky network). 0 selects the default (1); negative disables.
	Retries int
	// Metrics is the registry the per-shard families register on — the
	// one server.NewOver serves at /metrics. nil creates a private one.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Retries == 0 {
		o.Retries = 1
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Coordinator is the fleet backend: the pgserve query API over a fleet
// of range-partition shards. It holds no graph data itself: every query
// fans the accepted request out over HTTP and merges deterministically.
type Coordinator struct {
	shards  []Shard
	clients []*server.Client // clients[i] speaks to shards[i]
	opt     Options
	health  *healthTracker
	mx      *coordMetrics
	start   time.Time
}

var _ server.Backend = (*Coordinator)(nil)

// New builds a Coordinator over the given fleet.
func New(opt Options) (*Coordinator, error) {
	opt = opt.withDefaults()
	if len(opt.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	shards := make([]Shard, len(opt.Shards))
	seen := make(map[string]bool, len(opt.Shards))
	for i, sh := range opt.Shards {
		if sh.Name == "" {
			sh.Name = fmt.Sprintf("shard%d", i)
		}
		if seen[sh.Name] {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = true
		u, err := url.Parse(sh.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: shard %s: bad URL %q", sh.Name, sh.URL)
		}
		sh.URL = strings.TrimRight(sh.URL, "/")
		shards[i] = sh
	}
	c := &Coordinator{
		shards: shards,
		opt:    opt,
		health: newHealthTracker(shards),
		start:  time.Now(),
	}
	for _, sh := range shards {
		c.clients = append(c.clients, server.NewClient(sh.URL))
	}
	c.mx = newCoordMetrics(c, opt.Metrics)
	return c, nil
}

// Registry returns the registry the per-shard families are on.
func (c *Coordinator) Registry() *obs.Registry { return c.opt.Metrics }

// Healthz reports the coordinator process up. It does not touch the
// shards — Readyz does.
func (c *Coordinator) Healthz() any {
	return map[string]any{"status": "ok", "shards": len(c.shards)}
}
