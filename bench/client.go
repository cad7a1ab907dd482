package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// The request and response shapes are the benchmark's own: it speaks the
// documented JSON API with the public text codecs and imports no wire types
// from the program, so a reorganisation of those packages cannot break its
// build — only a change to the API itself can.

type queryRequest struct {
	GraphText string  `json:"graph_text"`
	Epsilon   float64 `json:"epsilon"`
	Delta     int     `json:"delta"`
	Seed      int64   `json:"seed"`
	K         int     `json:"k,omitempty"`
	NoCache   bool    `json:"no_cache,omitempty"`
	Trace     bool    `json:"trace,omitempty"`
}

type batchRequest struct {
	QueryTexts []string `json:"query_texts"`
	Epsilon    float64  `json:"epsilon"`
	Delta      int      `json:"delta"`
	Seed       int64    `json:"seed"`
	NoCache    bool     `json:"no_cache,omitempty"`
}

type graphRequest struct {
	GraphText string `json:"graph_text"`
}

type queryResponse struct {
	Answers    []int           `json:"answers"`
	SSP        map[int]float64 `json:"ssp"`
	Generation uint64          `json:"generation"`
	Cached     bool            `json:"cached"`
	TimeMS     float64         `json:"time_ms"`
}

type topkResponse struct {
	Items []struct {
		Graph int     `json:"graph"`
		SSP   float64 `json:"ssp"`
	} `json:"items"`
	Generation uint64  `json:"generation"`
	Cached     bool    `json:"cached"`
	TimeMS     float64 `json:"time_ms"`
}

type batchResponse struct {
	Results []queryResponse `json:"results"`
	TimeMS  float64         `json:"time_ms"`
}

type mutationResponse struct {
	Index      int    `json:"index"`
	Generation uint64 `json:"generation"`
}

// reply is what the benchmark keeps of a response.
type reply struct {
	answer     answer
	generation uint64
	cached     bool
	serverMS   float64 // the server's own time_ms
	bytes      int
	index      int // mutations: the slot written
}

// callOpts modifies one request.
type callOpts struct {
	noCache bool
	trace   bool
	slot    int // remove and replace: the target slot
}

type client struct {
	http *http.Client
}

func newClient(conns int) *client {
	return &client{http: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 4 * conns, MaxIdleConnsPerHost: conns},
	}}
}

func (cl *client) close() { cl.http.CloseIdleConnections() }

// send issues one request, with body as JSON if there is one, and decodes a
// 200 reply into out. It returns the size of the reply.
func (cl *client) send(ctx context.Context, method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return len(raw), fmt.Errorf("%s %s: status %d: %.200s", method, url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return len(raw), fmt.Errorf("%s %s: undecodable reply: %w", method, url, err)
	}
	return len(raw), nil
}

// do performs one operation against the server or coordinator at base.
func (cl *client) do(ctx context.Context, base string, c *corpus, o op, co callOpts) (reply, error) {
	var rep reply
	var err error
	switch o.kind {
	case opQuery, opTopK:
		q := c.queries[o.queries[0]]
		req := queryRequest{GraphText: q.text, Epsilon: q.epsilon, Delta: q.delta, Seed: o.seed,
			NoCache: co.noCache, Trace: co.trace}
		if o.kind == opQuery {
			var r queryResponse
			rep.bytes, err = cl.send(ctx, http.MethodPost, base+"/query", req, &r)
			rep.answer, rep.generation, rep.cached, rep.serverMS = queryAnswer(r.Answers, r.SSP), r.Generation, r.Cached, r.TimeMS
		} else {
			req.K = topK
			var r topkResponse
			rep.bytes, err = cl.send(ctx, http.MethodPost, base+"/topk", req, &r)
			graphs := make([]int, len(r.Items))
			ssps := make([]float64, len(r.Items))
			for i, it := range r.Items {
				graphs[i], ssps[i] = it.Graph, it.SSP
			}
			rep.answer, rep.generation, rep.cached, rep.serverMS = topkAnswer(graphs, ssps), r.Generation, r.Cached, r.TimeMS
		}
	case opBatch:
		q0 := c.queries[o.queries[0]]
		req := batchRequest{Epsilon: q0.epsilon, Delta: q0.delta, Seed: o.seed, NoCache: co.noCache}
		for _, qi := range o.queries {
			req.QueryTexts = append(req.QueryTexts, c.queries[qi].text)
		}
		var r batchResponse
		rep.bytes, err = cl.send(ctx, http.MethodPost, base+"/batch", req, &r)
		if err == nil && len(r.Results) != len(o.queries) {
			err = fmt.Errorf("batch of %d answered with %d results", len(o.queries), len(r.Results))
		}
		for i, m := range r.Results {
			rep.answer += queryAnswer(m.Answers, m.SSP) + ";"
			if i == 0 {
				rep.generation = m.Generation
			}
			rep.cached = rep.cached || m.Cached
		}
		rep.serverMS = r.TimeMS
	case opAdd, opReplace, opRemove:
		var r mutationResponse
		url := base + "/graphs"
		method := http.MethodPost
		var body any = graphRequest{GraphText: c.poolText[o.pool]}
		if o.kind != opAdd {
			url += "/" + strconv.Itoa(co.slot)
			method = http.MethodPut
		}
		if o.kind == opRemove {
			method, body = http.MethodDelete, nil
		}
		rep.bytes, err = cl.send(ctx, method, url, body, &r)
		rep.generation, rep.index = r.Generation, r.Index
	}
	return rep, err
}
