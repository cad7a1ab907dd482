package server

import (
	"net/http"
	"time"

	"probgraph/internal/obs"
)

// This file is the shard side of distributed serving (see
// internal/cluster): the two shard-internal endpoints the distributed
// top-k replay needs — /topk/bounds (the verification schedule, no
// verification) and /topk/verify (SSPs for an explicit global-id list).
// Both speak global graph ids on the wire, like every other endpoint on
// a partition.

// TopKBoundJSON is one /topk/bounds schedule entry: a candidate's global
// graph id, its name, and its clamped SSP upper bound.
type TopKBoundJSON struct {
	Graph int     `json:"graph"`
	Name  string  `json:"name"`
	Upper float64 `json:"upper"`
}

// TopKBoundsResponse is the /topk/bounds reply: this shard's top-k
// verification schedule, sorted in serial verification order (upper
// descending, global id ascending). Degenerate marks the δ ≥ |E(q)| case,
// where bounds lists the shard's first k live graphs (all with SSP 1) and
// nothing needs verification.
type TopKBoundsResponse struct {
	Degenerate bool            `json:"degenerate"`
	Bounds     []TopKBoundJSON `json:"bounds"`
	Generation uint64          `json:"generation"`
	TimeMS     float64         `json:"time_ms"`
	Trace      *obs.SpanNode   `json:"trace,omitempty"`
}

// TopKVerifyRequest is the /topk/verify payload: a query (all the /topk
// knobs except k apply — seed, verifier, delta, workers) plus the global
// ids to verify, each of which must live on this shard.
type TopKVerifyRequest struct {
	QueryRequest
	Graphs []int `json:"graphs"`
}

// TopKVerifyResponse is the /topk/verify reply: SSP estimates keyed by
// global id, bitwise-identical to what the full database's top-k
// verification computes for those graphs.
type TopKVerifyResponse struct {
	SSP        map[int]float64 `json:"ssp"`
	Generation uint64          `json:"generation"`
	TimeMS     float64         `json:"time_ms"`
}

// handleTopKBounds is POST /topk/bounds: the top-k schedule of this
// server's graphs — upper bounds only, no verification. A distributed
// coordinator merges the schedules of every shard by (upper, global id)
// and replays the serial early-termination rule over the union; see
// internal/cluster. Not cached: the schedule is one phase of a merged
// answer, never an answer itself.
func (l *local) handleTopKBounds(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	q, opt, ok := Accept(w, r, &req, req.CheckTopK)
	if !ok {
		return
	}
	ctx, cancel := l.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	start := time.Now()

	v := l.db.View()
	l.queries["topk_bounds"].Inc()
	release := l.acquire()
	bounds, degenerate, err := v.QueryTopKBounds(ctx, q, req.K, l.workers(opt))
	release()
	resp := &TopKBoundsResponse{
		Degenerate: degenerate,
		Bounds:     make([]TopKBoundJSON, 0, len(bounds)),
		Generation: v.Generation,
	}
	for _, b := range bounds {
		resp.Bounds = append(resp.Bounds, TopKBoundJSON{
			Graph: v.GID(b.Graph), Name: v.Graphs[b.Graph].G.Name(), Upper: b.Upper,
		})
	}
	reply(w, r, "topk bounds failed", req.Trace, start, resp, err)
}

// handleTopKVerify is POST /topk/verify: SSP estimates for an explicit
// list of this server's graphs, by global id. The estimates are the ones
// the serial top-k run would compute (per-candidate seeding from the
// global id alone), so the coordinator can fold them into its replayed
// commit loop unchanged.
func (l *local) handleTopKVerify(w http.ResponseWriter, r *http.Request) {
	var req TopKVerifyRequest
	q, opt, ok := Accept(w, r, &req, req.Check)
	if !ok {
		return
	}
	ctx, cancel := l.requestContext(r.Context(), req.TimeoutMS)
	defer cancel()
	start := time.Now()

	v := l.db.View()
	locals := make([]int, len(req.Graphs))
	for i, g := range req.Graphs {
		li := v.LocalOf(g)
		if li < 0 || !v.Live(li) {
			httpError(w, http.StatusBadRequest, "graph %d is not on this shard", g)
			return
		}
		locals[i] = li
	}
	l.queries["topk_verify"].Add(int64(len(locals)))
	release := l.acquire()
	ssps, err := v.VerifySSPBatch(ctx, q, locals, l.workers(opt))
	release()
	if err != nil {
		ErrorFrom("topk verify failed", err).Write(w)
		return
	}
	resp := TopKVerifyResponse{
		SSP:        make(map[int]float64, len(ssps)),
		Generation: v.Generation,
		TimeMS:     float64(time.Since(start).Microseconds()) / 1000,
	}
	for i, p := range ssps {
		resp.SSP[req.Graphs[i]] = p
	}
	WriteJSON(w, resp)
}
