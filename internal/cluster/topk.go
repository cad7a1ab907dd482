package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"probgraph/internal/server"
)

// schedEntry is one slot of the merged distributed top-k verification
// schedule: a candidate identified by global id, the upper bound its
// owning shard computed (bitwise the single-node bound, because bounds
// seed from the global id), and which shard to fetch its SSP from.
type schedEntry struct {
	gid   int
	name  string
	upper float64
	shard int // index into c.shards
}

// handleTopK is POST /topk, distributed: fan out to /topk/bounds, merge
// the shard schedules into the single-node verification order (Upper
// descending, global id ascending — bounds are bitwise-equal across the
// partition, so the merged schedule IS the single-node schedule), then
// replay the serial early-termination rule, fetching SSPs from each
// candidate's owning shard via /topk/verify. SSP fetches are batched a
// window ahead as prefetch; per-candidate SSPs are deterministic, so
// overfetch past the serial cutoff wastes work but never changes the
// answer. The result is bitwise-identical to single-node QueryTopKCtx.
func (c *Coordinator) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if _, _, ok := server.Accept(w, r, &req, req.CheckTopK); !ok {
		return
	}
	c.mx.queries["topk"].Inc()
	start := time.Now()
	bounds, e := fanout(r.Context(), c, "/topk/bounds", &req,
		func(_ int, br *server.TopKBoundsResponse) (uint64, bool) { return br.Generation, true })
	if e != nil {
		e.Write(w)
		return
	}
	for i := 1; i < len(bounds); i++ {
		// Degeneracy (δ ≥ |E(q)|) depends only on the query and options
		// every shard received identically; disagreement means the fleet
		// is not running the same code.
		if bounds[i].Degenerate != bounds[0].Degenerate {
			malformed(c.shards[i]).Write(w)
			return
		}
	}

	var items []server.TopKItemJSON
	if bounds[0].Degenerate {
		items = mergeDegenerate(bounds, req.K)
	} else if items, e = c.replayTopK(r.Context(), &req, mergeSchedules(bounds), bounds[0].Generation); e != nil {
		e.Write(w)
		return
	}
	resp := &server.TopKResponse{
		Items:      items,
		Generation: bounds[0].Generation,
		TimeMS:     float64(time.Since(start).Microseconds()) / 1000,
	}
	if server.TraceWanted(r, req.Trace) {
		resp.Trace = server.TraceTree(r)
	}
	server.WriteJSON(w, resp)
}

// mergeDegenerate handles δ ≥ |E(q)|: every live graph matches with SSP 1
// and the single node returns the first k live slots. Each shard reported
// its first k live global ids; the fleet's first k are the k smallest.
func mergeDegenerate(bounds []*server.TopKBoundsResponse, k int) []server.TopKItemJSON {
	var all []server.TopKItemJSON
	for _, br := range bounds {
		for _, b := range br.Bounds {
			all = append(all, server.TopKItemJSON{Graph: b.Graph, Name: b.Name, SSP: 1})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Graph < all[j].Graph })
	if len(all) > k {
		all = all[:k]
	}
	if all == nil {
		all = []server.TopKItemJSON{}
	}
	return all
}

// mergeSchedules folds per-shard bound schedules into the global one,
// sorted in the serial verification order: Upper descending, global id
// ascending. Candidate sets are disjoint across shards and each shard's
// bounds are bitwise the single node's, so this is exactly the schedule
// a single node would verify in.
func mergeSchedules(bounds []*server.TopKBoundsResponse) []schedEntry {
	var sched []schedEntry
	for si, br := range bounds {
		for _, b := range br.Bounds {
			sched = append(sched, schedEntry{gid: b.Graph, name: b.Name, upper: b.Upper, shard: si})
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if sched[i].upper != sched[j].upper {
			return sched[i].upper > sched[j].upper
		}
		return sched[i].gid < sched[j].gid
	})
	return sched
}

// replayTopK walks the merged schedule exactly as the serial single-node
// commit loop does: before considering candidate i, stop if the top holds
// k entries and cands[i].Upper cannot beat the k-th best SSP; otherwise
// verify it (the owning shard recomputes the global-id-seeded SSP) and
// insert when positive, ranked SSP descending / global id ascending,
// truncated to k. SSPs are fetched in look-ahead batches grouped by
// owning shard; entries past the serial stop point are simply discarded.
// gen is the generation the schedule was computed under.
func (c *Coordinator) replayTopK(ctx context.Context, req *server.QueryRequest, sched []schedEntry, gen uint64) ([]server.TopKItemJSON, *server.Error) {
	k := req.K
	batch := k
	if batch < 8 {
		batch = 8
	}
	top := make([]server.TopKItemJSON, 0, k+1)
	kthBest := func() float64 {
		if len(top) < k {
			return 0
		}
		return top[len(top)-1].SSP
	}
	ssps := make(map[int]float64, len(sched))
	for i := 0; i < len(sched); i++ {
		e := sched[i]
		if len(top) >= k && e.upper <= kthBest() {
			break
		}
		if _, fetched := ssps[e.gid]; !fetched {
			hi := i + batch
			if hi > len(sched) {
				hi = len(sched)
			}
			if err := c.fetchSSPs(ctx, req, sched[i:hi], gen, ssps); err != nil {
				return nil, err
			}
		}
		if ssp := ssps[e.gid]; ssp > 0 {
			top = insertTop(top, server.TopKItemJSON{Graph: e.gid, Name: e.name, SSP: ssp}, k)
		}
	}
	return top, nil
}

// insertTop mirrors core.insertTopK over wire items: ranked SSP
// descending, global id ascending on ties, truncated to k.
func insertTop(top []server.TopKItemJSON, item server.TopKItemJSON, k int) []server.TopKItemJSON {
	pos := len(top)
	for pos > 0 && (top[pos-1].SSP < item.SSP ||
		(top[pos-1].SSP == item.SSP && top[pos-1].Graph > item.Graph)) {
		pos--
	}
	top = append(top, server.TopKItemJSON{})
	copy(top[pos+1:], top[pos:])
	top[pos] = item
	if len(top) > k {
		top = top[:k]
	}
	return top
}

// fetchSSPs verifies one look-ahead window of schedule entries: global
// ids are grouped by owning shard and each shard verifies its group in
// one /topk/verify call, concurrently. Results land in ssps — an entry
// for every id asked about, zeros included (a shard answers every id it
// is given; one left out is a malformed answer, never an SSP of 0) —
// and must have been computed under gen, the schedule's generation: a
// shard that moved on between the two phases would otherwise be merged
// into a ranking of two database states.
func (c *Coordinator) fetchSSPs(ctx context.Context, req *server.QueryRequest, window []schedEntry, gen uint64, ssps map[int]float64) *server.Error {
	byShard := make(map[int][]int)
	for _, e := range window {
		if _, fetched := ssps[e.gid]; !fetched {
			byShard[e.shard] = append(byShard[e.shard], e.gid)
		}
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
			return server.Errorf(http.StatusInternalServerError, "%v", err)
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
		return e
	}
	if got := resps[0].Generation; got != gen {
		return generationMismatch("/topk/bounds", gen, c.shards[reqs[0].shard].Name, got)
	}
	for i, vr := range resps {
		for _, gid := range ids[i] {
			ssps[gid] = vr.SSP[gid]
		}
	}
	return nil
}
