package cluster

import (
	"context"
	"sort"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/server"
)

// walked is one entry of the merged walks: a schedule entry in global ids,
// the shard (an index into c.shards) that walked it, and its value — nil
// on the entry that shard stopped at.
type walked struct {
	core.TopKBound
	shard int
	ssp   *float64
}

// TopK is /topk over the fleet, in one fan-out: every shard runs the
// single node's rule, core.ReplayTopK, over its own schedule and returns
// its walk (/topk/walk); the coordinator merges the walks into the
// single-node verification order (Upper descending, global id ascending —
// bounds are bitwise-equal across the partition) and runs the same rule
// over the merged list with every value already in hand. At any point of
// the schedule a shard's k-th best SSP is never above the fleet's, so each
// shard's walk covers every entry of that shard the fleet's walk commits,
// and the fleet's walk stops inside some walk or at one shard's stop
// entry: the result is bitwise-identical to single-node QueryTopKCtx.
// Reaching an unvalued entry means that shard stopped short of its own
// rule — a 502 naming it. In the degenerate δ ≥ |E(q)| case every shard
// walks its first k live graphs at Upper and SSP 1, and the replay keeps
// the fleet's first k.
func (c *Coordinator) TopK(ctx context.Context, req *server.QueryRequest, _ *graph.Graph, _ core.QueryOptions) (*server.TopKResponse, error) {
	walks, e := fanout(ctx, c, "/topk/walk", req, validWalk)
	if e != nil {
		return nil, e
	}
	merged, names, e := c.mergeWalks(walks)
	if e != nil {
		return nil, e
	}
	sched := make([]core.TopKBound, len(merged))
	vals := make([]float64, len(merged))
	for i, w := range merged {
		sched[i] = w.TopKBound
		if w.ssp != nil {
			vals[i] = *w.ssp
		}
	}
	top, _, err := core.ReplayTopK(ctx, sched, req.K, max(len(sched), 1), func(_ context.Context, lo, hi int) ([]float64, error) {
		for i := lo; i < hi; i++ {
			if merged[i].ssp == nil {
				return vals[lo:i], malformed(c.shards[merged[i].shard])
			}
		}
		return vals[lo:hi], nil
	})
	if err != nil {
		return nil, err // a shard that stopped short, or the request's own context ending
	}
	resp := &server.TopKResponse{Items: make([]server.TopKItemJSON, len(top)), Generation: walks[0].Generation}
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

// mergeWalks folds per-shard walks into one list in global ids, sorted in
// the serial verification order: Upper descending, global id ascending.
// Each shard's bounds are bitwise the single node's (they seed from the
// global id), so over disjoint ranges the list is, up to the first shard's
// stop entry, exactly the prefix of the schedule a single node would
// verify. It also returns each entry's graph name. A global id listed
// twice — two shards serving overlapping ranges — would be ranked twice;
// it is a 502 naming the second shard to list it.
func (c *Coordinator) mergeWalks(walks []*server.TopKWalkResponse) ([]walked, map[int]string, *server.Error) {
	var merged []walked
	names := make(map[int]string)
	for si, wr := range walks {
		for _, s := range wr.Walk {
			if _, dup := names[s.Graph]; dup {
				return nil, nil, malformed(c.shards[si])
			}
			names[s.Graph] = s.Name
			merged = append(merged, walked{core.TopKBound{Graph: s.Graph, Upper: s.Upper}, si, s.SSP})
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Upper != merged[j].Upper {
			return merged[i].Upper > merged[j].Upper
		}
		return merged[i].Graph < merged[j].Graph
	})
	return merged, names, nil
}
