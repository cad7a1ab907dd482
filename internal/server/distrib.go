package server

import (
	"net/http"
	"time"

	"probgraph/internal/obs"
)

// This file is the shard side of distributed serving (see
// internal/cluster): /topk/walk, the one shard-internal endpoint the
// distributed top-k needs. It speaks global graph ids on the wire, like
// every other endpoint on a partition.

// TopKStepJSON is one /topk/walk entry: a candidate's global graph id, its
// name, its clamped SSP upper bound and, on every entry but the one the
// walk stopped at, its SSP.
type TopKStepJSON struct {
	Graph int      `json:"graph"`
	Name  string   `json:"name"`
	Upper float64  `json:"upper"`
	SSP   *float64 `json:"ssp,omitempty"`
}

// TopKWalkResponse is the /topk/walk reply: this shard's top-k walk
// (core.View.QueryTopKWalk) in schedule order — upper descending, global
// id ascending — the committed entries valued, then the unvalued entry the
// walk stopped at, if it stopped before its schedule ended. In the
// δ ≥ |E(q)| case the walk is the shard's first k live graphs at SSP 1.
// Cached marks a walk served from the shard's result cache.
type TopKWalkResponse struct {
	Walk       []TopKStepJSON `json:"walk"`
	Generation uint64         `json:"generation"`
	Cached     bool           `json:"cached"`
	TimeMS     float64        `json:"time_ms"`
	Trace      *obs.SpanNode  `json:"trace,omitempty"`
}

// handleTopKWalk is POST /topk/walk: the serial top-k rule run over this
// server's own schedule, returned as the walk it took. A distributed
// coordinator merges the walks of every shard by (upper, global id) and
// replays the rule over the union; see internal/cluster. The walk is the
// result-cache entry /topk ranks from (local.topkWalk), and its reply is
// tagged like /topk's, so a repeated fleet /topk costs each shard a 304.
func (l *local) handleTopKWalk(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	q, opt, ok := Accept(w, r, &req, req.CheckTopK)
	if !ok {
		return
	}
	l.queries["topk_walk"].Inc()
	start := time.Now()
	v, walk, cached, err := l.topkWalk(r.Context(), &req, q, opt)
	var resp *TopKWalkResponse
	if err == nil {
		resp = &TopKWalkResponse{Walk: make([]TopKStepJSON, 0, len(walk.Steps)+1), Generation: v.Generation, Cached: cached}
		for _, s := range walk.Steps {
			resp.Walk = append(resp.Walk, TopKStepJSON{
				Graph: v.GID(s.Graph), Name: v.Graphs[s.Graph].G.Name(), Upper: s.Upper, SSP: &s.SSP,
			})
		}
		if s := walk.Stop; s != nil {
			resp.Walk = append(resp.Walk, TopKStepJSON{Graph: v.GID(s.Graph), Name: v.Graphs[s.Graph].G.Name(), Upper: s.Upper})
		}
	}
	reply(w, r, l.tags, "topk walk failed", req.Trace, start, resp, err)
}
