package cluster

import (
	"context"
	"sort"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/server"
)

// validQuery vets one shard's /query answer for mergeQuery, which pairs
// names with answers by position.
func validQuery(_ int, qr *server.QueryResponse) (uint64, bool) {
	return qr.Generation, len(qr.Names) == len(qr.Answers)
}

// Query is /query over the fleet: fan the request out to every shard,
// merge. Shards hold disjoint global-id ranges and answer in global ids,
// so the merge is a disjoint sorted union — bitwise the single-node
// answer set, with bitwise the single-node SSP values.
func (c *Coordinator) Query(ctx context.Context, req *server.QueryRequest, _ *graph.Graph, _ core.QueryOptions) (*server.QueryResponse, error) {
	resps, e := fanout(ctx, c, "/query", req, validQuery)
	if e != nil {
		return nil, e
	}
	return c.mergeQuery(resps)
}

// Batch is /batch over the fleet: one fan-out carrying the whole batch
// (each shard derives the same per-member seeds from the base seed),
// merged member-wise.
func (c *Coordinator) Batch(ctx context.Context, req *server.BatchRequest, qs []*graph.Graph, _ core.QueryOptions) (*server.BatchResponse, error) {
	batches, e := fanout(ctx, c, "/batch", req, func(_ int, br *server.BatchResponse) (uint64, bool) {
		if len(br.Results) != len(qs) {
			return 0, false
		}
		// A shard pins one view per batch, so its members share a
		// generation; anything else is not a pgserve answer.
		for _, m := range br.Results {
			if m == nil || len(m.Names) != len(m.Answers) || m.Generation != br.Results[0].Generation {
				return 0, false
			}
		}
		return br.Results[0].Generation, true
	})
	if e != nil {
		return nil, e
	}
	out := &server.BatchResponse{}
	member := make([]*server.QueryResponse, len(batches))
	for qi := range qs {
		for si := range batches {
			member[si] = batches[si].Results[qi]
		}
		merged, err := c.mergeQuery(member)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, merged)
	}
	return out, nil
}

// mergeQuery folds per-shard /query responses (in fleet order) into the
// single-node response. Answer sets are disjoint (each global id lives on
// exactly one shard) and per-shard sorted, so the union sorted by global id
// is exactly the single-node answer slice; SSP maps union without
// conflicts. A global id answered or valued twice — two shards serving
// overlapping ranges — is a 502 naming the second shard to hold it, never
// a duplicated answer. Pipeline counters sum — except RelaxedQueries, which
// every shard computes identically from the query alone (a sum would
// multiply it by the fleet size). Cached is the fleet AND: the merged
// answer came from caches only if every part did.
func (c *Coordinator) mergeQuery(resps []*server.QueryResponse) (*server.QueryResponse, error) {
	type pair struct {
		gid   int
		name  string
		shard int
	}
	var pairs []pair
	out := &server.QueryResponse{
		Answers:    []int{},
		Names:      []string{},
		SSP:        map[int]float64{},
		Generation: resps[0].Generation,
		Cached:     true,
	}
	for si, qr := range resps {
		for i, gid := range qr.Answers {
			pairs = append(pairs, pair{gid, qr.Names[i], si})
		}
		for gid, p := range qr.SSP {
			if _, dup := out.SSP[gid]; dup {
				return nil, malformed(c.shards[si])
			}
			out.SSP[gid] = p
		}
		out.Cached = out.Cached && qr.Cached
		st, add := &out.Stats, qr.Stats
		st.StructFilterCandidates += add.StructFilterCandidates
		st.StructConfirmed += add.StructConfirmed
		st.PrunedByUpper += add.PrunedByUpper
		st.AcceptedByLower += add.AcceptedByLower
		st.VerifyCandidates += add.VerifyCandidates
		if add.RelaxedQueries > st.RelaxedQueries {
			st.RelaxedQueries = add.RelaxedQueries
		}
		st.TimeStructMS += add.TimeStructMS
		st.TimeProbMS += add.TimeProbMS
		st.TimeVerifyMS += add.TimeVerifyMS
		st.TimeTotalMS += add.TimeTotalMS
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].gid != pairs[j].gid {
			return pairs[i].gid < pairs[j].gid
		}
		return pairs[i].shard < pairs[j].shard
	})
	for i, p := range pairs {
		if i > 0 && p.gid == pairs[i-1].gid {
			return nil, malformed(c.shards[p.shard])
		}
		out.Answers = append(out.Answers, p.gid)
		out.Names = append(out.Names, p.name)
	}
	return out, nil
}
