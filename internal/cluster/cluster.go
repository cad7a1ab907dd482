// Package cluster is the coordinator side of distributed serving: it fans
// T-PS queries out over each shard's client to a fleet of pgserve shards —
// each serving one contiguous global-id range partition of the same
// database (see core.PartitionRanges / SaveRange) — and merges the shard
// responses into answers that are bitwise-identical to a single-node run
// over the full database.
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
//     disjoint answer sets sorted by global id; /topk hands the walks each
//     shard took with the single node's early-termination rule over its
//     own schedule to core.ReplayWalks, which steps that same rule over
//     them merged; /query/stream forwards shard match lines and
//     re-derives the sorted summary.
//
// Failure semantics: a shard that cannot answer (down, timed out after
// retries, wrong generation, an answer that cannot be merged — a global id
// another shard answered or streamed too, say) fails the whole request
// with a structured error naming the shard — never a silently partial
// answer, or a doubled one. The Coordinator is a server.Backend: the
// HTTP side — request validation, counting, timing, tracing, the error
// body, NDJSON framing — is internal/server's one handler set, which
// pgproxy serves over it with server.NewOver, and each shard's client is
// internal/server's Client (over HTTP, or in process); this package only
// decides what to send where and how to merge. Client cancellation
// propagates: every shard sub-request derives from the incoming request's
// context.
//
// Revalidation: a shard's reply depends only on its database state and
// the request, and pgserve tags every cacheable read reply with an ETag
// naming that state. The coordinator keeps each shard's last reply to a
// sub-request body with its tag, and sends the tag back as If-None-Match
// the next time; a shard whose state has not moved answers an empty 304
// without reading the body, and the coordinator merges the kept reply as
// if it had just arrived. The determinism contract is what makes this
// sound, and the kept reply is never used without its shard's 304, so the
// failure semantics above hold unchanged.
package cluster

import (
	"fmt"
	"slices"
	"time"

	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// Shard names one member of the fleet and the client that reaches it.
type Shard struct {
	Name   string         // label used in errors and metrics
	Client *server.Client // server.NewClient(url), or server.NewHandlerClient in process
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
	// flaky network). Zero or negative means none.
	Retries int
}

// Coordinator is the fleet backend: the pgserve query API over a fleet
// of range-partition shards. It holds no graph data itself: every query
// fans the accepted request out over each shard's client — conditional on
// the reply it kept, where it kept one — and merges deterministically.
type Coordinator struct {
	shards       []*member // fleet order
	shardTimeout time.Duration
	retries      int
	reg          *obs.Registry
	// kept maps path and sub-request body to the fleet's last replies
	// (a *kept[T]), at pgserve's default result-cache capacity.
	kept *server.LRU
}

var _ server.Backend = (*Coordinator)(nil)

// New builds a Coordinator over the given fleet.
func New(opt Options) (*Coordinator, error) {
	if len(opt.Shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	c := &Coordinator{shardTimeout: opt.ShardTimeout, retries: opt.Retries, reg: obs.NewRegistry(),
		kept: server.NewLRU(server.DefaultCacheSize)}
	for i, sh := range opt.Shards {
		if sh.Name == "" {
			sh.Name = fmt.Sprintf("shard%d", i)
		}
		if slices.ContainsFunc(c.shards, func(m *member) bool { return m.Name == sh.Name }) {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		c.shards = append(c.shards, newMember(sh, c.reg))
	}
	c.registerFleetGauges()
	return c, nil
}

// Registry returns the registry the per-shard families are on.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Healthz reports the coordinator process up. It does not touch the
// shards — Readyz does.
func (c *Coordinator) Healthz() any {
	return map[string]any{"status": "ok", "shards": len(c.shards)}
}
