package cluster

import (
	"context"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/server"
)

// TopK is /topk over the fleet, in one fan-out: every shard runs the
// single node's rule over its own schedule and returns its walk
// (/topk/walk), and core.ReplayWalks steps the same rule over the walks
// merged in the single-node verification order, every value already in
// hand — bitwise-identical to single-node QueryTopKCtx (see
// core.View.QueryTopKWalk for why). A walk the replay cannot use — one
// that lists a global id another walk lists too (overlapping ranges), or
// whose stop entry the replay reaches (the shard stopped short of its own
// rule) — is a 502 naming its shard. In the degenerate δ ≥ |E(q)| case
// every shard walks its first k live graphs at Upper and SSP 1, and the
// replay keeps the fleet's first k. Cached is the fleet AND, as in
// mergeQuery: the ranking came from caches only if every shard's walk did
// (from the shard's cache, or kept here and revalidated).
func (c *Coordinator) TopK(ctx context.Context, req *server.QueryRequest, _ *graph.Graph, _ core.QueryOptions) (*server.TopKResponse, error) {
	walks, revalidated, e := fanout(ctx, c, "/topk/walk", req, keeps(req.NoCache, req.Trace), validWalk)
	if e != nil {
		return nil, e
	}
	resp := &server.TopKResponse{Generation: walks[0].Generation, Cached: true}
	decoded := make([]*core.TopKWalk, len(walks))
	names := make(map[int]string)
	for i, wr := range walks {
		resp.Cached = resp.Cached && (wr.Cached || revalidated[i])
		w := &core.TopKWalk{Steps: make([]core.TopKStep, 0, len(wr.Walk))}
		for _, s := range wr.Walk {
			names[s.Graph] = s.Name
			b := core.TopKBound{Graph: s.Graph, Upper: s.Upper}
			if s.SSP == nil {
				w.Stop = &b
			} else {
				w.Steps = append(w.Steps, core.TopKStep{TopKBound: b, SSP: *s.SSP})
			}
		}
		decoded[i] = w
	}
	top, bad, err := core.ReplayWalks(decoded, req.K)
	if err != nil {
		return nil, malformed(c.shards[bad])
	}
	resp.Items = make([]server.TopKItemJSON, len(top))
	for i, it := range top {
		resp.Items[i] = server.TopKItemJSON{Graph: it.Graph, Name: names[it.Graph], SSP: it.SSP}
	}
	return resp, nil
}

// validWalk vets one shard's /topk/walk answer: bounds and values in
// [0, 1], entries in schedule order, and at most one unvalued entry, the
// last — the shape every merged-replay step above relies on.
func validWalk(wr *server.TopKWalkResponse) (uint64, bool) {
	for i, s := range wr.Walk {
		if !(s.Upper >= 0 && s.Upper <= 1) || (s.SSP == nil && i != len(wr.Walk)-1) ||
			(s.SSP != nil && !(*s.SSP >= 0 && *s.SSP <= 1)) {
			return 0, false
		}
		if i > 0 {
			if p := wr.Walk[i-1]; p.Upper < s.Upper || (p.Upper == s.Upper && p.Graph >= s.Graph) {
				return 0, false
			}
		}
	}
	return wr.Generation, true
}
