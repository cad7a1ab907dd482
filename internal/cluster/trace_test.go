package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// spanShape renders a span tree's names, parent links and counts, not
// its timings, as name(count){children}. With unordered, siblings compare
// as a set: a fleet fans its sub-requests out in no fixed order.
func spanShape(n *obs.SpanNode, unordered bool) string {
	if n == nil {
		return "<no trace>"
	}
	var kids []string
	for _, c := range n.Children {
		kids = append(kids, spanShape(c, unordered))
	}
	if unordered {
		slices.Sort(kids)
	}
	s := n.Name
	if n.Count != 0 {
		s += fmt.Sprintf("(%d)", n.Count)
	}
	if len(kids) > 0 {
		s += "{" + strings.Join(kids, " ") + "}"
	}
	return s
}

// TestSpanTreeShapes pins the traced span tree of every query endpoint —
// on one pgserve and through a two-shard pgproxy — for fixed inputs:
// stage names, nesting and counts. One worker keeps a batch's members, and
// so their spans, in order.
func TestSpanTreeShapes(t *testing.T) {
	db := testDatabase(t, 3, 12)
	f := newFleet(t, db, partitionRanges(t, db, 2), false)
	qs := extractQueries(db, 3, 2)
	req := server.QueryRequest{Graph: server.GraphToJSON(qs[0]), Epsilon: 0.3, Delta: 2, Seed: 3, Workers: 1, Trace: true}
	topk := req
	topk.K = 3
	batch := server.BatchRequest{Epsilon: 0.3, Delta: 2, Seed: 3, Workers: 1, Trace: true,
		Queries: []server.GraphJSON{*server.GraphToJSON(qs[0]), *server.GraphToJSON(qs[1])}}

	trace := func(h http.Handler, path string, body any) *obs.SpanNode {
		t.Helper()
		if path == "/query/stream" {
			data, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := server.NewHandlerClient(h).Stream(context.Background(), path, data,
				func(server.StreamMatchJSON, []byte) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			return sum.Trace
		}
		st, data := postJSON(t, h, path, body)
		if st != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, st, data)
		}
		return mustDecode[struct {
			Trace *obs.SpanNode `json:"trace"`
		}](t, data).Trace
	}
	for _, c := range []struct {
		h     http.Handler
		path  string
		body  any
		fleet bool
		want  string
	}{
		{f.single, "/query", req, false, "query{relax(4) struct_filter(12){confirm(12)} pmi_prune verify(12)}"},
		{f.single, "/topk", topk, false, "topk{relax(4) struct_filter(12){confirm(12)} bounds(12) topk_commit(5)}"},
		{f.single, "/topk/walk", topk, false, "topk_walk{relax(4) struct_filter(12){confirm(12)} bounds(12) topk_commit(5)}"},
		{f.single, "/batch", batch, false, "batch{relax(4) struct_filter(12){confirm(12)} pmi_prune verify(12) " +
			"relax(4) struct_filter(10){confirm(12)} pmi_prune verify(10)}"},
		{f.single, "/query/stream", req, false, "stream{relax(4) struct_filter(12){confirm(12)} pmi_prune verify(12)}"},
		{f.coord, "/query", req, true, "query{shard:s0/query shard:s1/query}"},
		{f.coord, "/topk", topk, true, "topk{shard:s0/topk/walk shard:s1/topk/walk}"},
	} {
		where := "pgserve"
		if c.fleet {
			where = "pgproxy"
		}
		if got := spanShape(trace(c.h, c.path, c.body), c.fleet); got != c.want {
			t.Errorf("%s %s span tree:\n got %s\nwant %s", where, c.path, got, c.want)
		}
	}
}
