package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/server"
)

// owner is where a scheduled candidate lives: its graph name and the shard
// (an index into c.shards) to fetch its SSP from.
type owner struct {
	name  string
	shard int
}

// TopK is /topk over the fleet: fan out to /topk/bounds, merge the shard
// schedules into the single-node verification order (Upper descending,
// global id ascending — bounds are bitwise-equal across the partition, so
// the merged schedule IS the single-node schedule), then run the single
// node's rule, core.ReplayTopK, over it with a verify that fetches a
// window of SSPs from the owning shards via /topk/verify. The window —
// how many SSPs one round of /topk/verify calls fetches ahead of the
// walk — is max(k, 8): a round trip costs far more than a value, so the
// coordinator amortises it where the in-process caller would not.
// Per-candidate SSPs are deterministic, so what a window fetches past the
// stop wastes work but never changes the answer: the result is
// bitwise-identical to single-node QueryTopKCtx.
func (c *Coordinator) TopK(ctx context.Context, req *server.QueryRequest, _ *graph.Graph, _ core.QueryOptions) (*server.TopKResponse, error) {
	bounds, e := fanout(ctx, c, "/topk/bounds", req,
		func(_ int, br *server.TopKBoundsResponse) (uint64, bool) {
			for _, b := range br.Bounds {
				if !(b.Upper >= 0 && b.Upper <= 1) {
					return 0, false
				}
			}
			return br.Generation, true
		})
	if e != nil {
		return nil, e
	}
	for i := 1; i < len(bounds); i++ {
		// Degeneracy (δ ≥ |E(q)|) depends only on the query and options
		// every shard received identically; disagreement means the fleet
		// is not running the same code.
		if bounds[i].Degenerate != bounds[0].Degenerate {
			return nil, malformed(c.shards[i])
		}
	}
	sched, owners, e := c.mergeSchedules(bounds)
	if e != nil {
		return nil, e
	}
	var top []core.TopKItem
	if bounds[0].Degenerate {
		// Every live graph matches with SSP 1 and the single node returns
		// its first k live slots. Each shard listed its first k live
		// global ids with Upper 1, so the schedule is in global-id order
		// and the fleet's first k head it.
		for _, s := range sched[:min(req.K, len(sched))] {
			top = append(top, core.TopKItem{Graph: s.Graph, SSP: 1})
		}
	} else {
		var err error
		top, _, err = core.ReplayTopK(ctx, sched, req.K, max(req.K, 8), func(ctx context.Context, lo, hi int) ([]float64, error) {
			return c.fetchSSPs(ctx, req, sched[lo:hi], owners, bounds[0].Generation)
		})
		if err != nil {
			return nil, err // a shard's *server.Error, or the request's own context ending between rounds
		}
	}
	resp := &server.TopKResponse{Items: make([]server.TopKItemJSON, len(top)), Generation: bounds[0].Generation}
	for i, it := range top {
		resp.Items[i] = server.TopKItemJSON{Graph: it.Graph, Name: owners[it.Graph].name, SSP: it.SSP}
	}
	return resp, nil
}

// mergeSchedules folds per-shard bound schedules into the global one, in
// global ids, sorted in the serial verification order: Upper descending,
// global id ascending. Each shard's bounds are bitwise the single node's
// (they seed from the global id), so over disjoint ranges this is exactly
// the schedule a single node would verify in. A global id listed twice —
// two shards serving overlapping ranges — would be ranked twice; it is a
// 502 naming the second shard to list it.
func (c *Coordinator) mergeSchedules(bounds []*server.TopKBoundsResponse) ([]core.TopKBound, map[int]owner, *server.Error) {
	var sched []core.TopKBound
	owners := make(map[int]owner)
	for si, br := range bounds {
		for _, b := range br.Bounds {
			if _, dup := owners[b.Graph]; dup {
				return nil, nil, malformed(c.shards[si])
			}
			owners[b.Graph] = owner{b.Name, si}
			sched = append(sched, core.TopKBound{Graph: b.Graph, Upper: b.Upper})
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].Upper != sched[j].Upper {
			return sched[i].Upper > sched[j].Upper
		}
		return sched[i].Graph < sched[j].Graph
	})
	return sched, owners, nil
}

// fetchSSPs verifies one look-ahead window of schedule entries: global
// ids are grouped by owning shard and each shard verifies its group in
// one /topk/verify call, concurrently. It returns the window's values in
// window order, zeros included (a shard answers every id it is given; one
// left out is a malformed answer, never an SSP of 0). They must have been
// computed under gen, the schedule's generation: a shard that moved on
// between the two phases would otherwise be merged into a ranking of two
// database states. A failure is a *server.Error.
func (c *Coordinator) fetchSSPs(ctx context.Context, req *server.QueryRequest, window []core.TopKBound, owners map[int]owner, gen uint64) ([]float64, error) {
	byShard := make([][]int, len(c.shards))
	for _, b := range window {
		si := owners[b.Graph].shard
		byShard[si] = append(byShard[si], b.Graph)
	}
	// Deterministic sub-request order: fleet order, ids ascending.
	var reqs []subRequest
	var ids [][]int
	for si := range c.shards {
		if len(byShard[si]) == 0 {
			continue
		}
		sort.Ints(byShard[si])
		body, err := json.Marshal(&server.TopKVerifyRequest{QueryRequest: *req, Graphs: byShard[si]})
		if err != nil {
			return nil, server.Errorf(http.StatusInternalServerError, "%v", err)
		}
		reqs = append(reqs, subRequest{si, body})
		ids = append(ids, byShard[si])
	}
	resps, e := gather(ctx, c, "/topk/verify", reqs, func(i int, vr *server.TopKVerifyResponse) (uint64, bool) {
		for _, gid := range ids[i] {
			if _, ok := vr.SSP[gid]; !ok {
				return 0, false
			}
		}
		return vr.Generation, true
	})
	if e != nil {
		return nil, e
	}
	if got := resps[0].Generation; got != gen {
		return nil, generationMismatch("/topk/bounds", gen, c.shards[reqs[0].shard].Name, got)
	}
	from := make([]*server.TopKVerifyResponse, len(c.shards))
	for i, rq := range reqs {
		from[rq.shard] = resps[i]
	}
	ssps := make([]float64, len(window))
	for i, b := range window {
		ssps[i] = from[owners[b.Graph].shard].SSP[b.Graph]
	}
	return ssps, nil
}
