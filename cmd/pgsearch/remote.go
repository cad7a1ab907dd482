package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"probgraph"
	"probgraph/internal/server"
	"probgraph/internal/stats"
)

// remoteConfig is -server mode's slice of the flag set.
type remoteConfig struct {
	url      string
	qfile    string
	epsilon  float64
	delta    int
	verifier string
	plain    bool
	seed     int64
	workers  int
	batch    bool
	stream   bool
	jsonOut  bool
	verbose  bool
	timeout  time.Duration
}

// runRemote answers the -qfile queries against a running pgserve or
// pgproxy instead of evaluating locally. Seeds derive exactly as in local
// mode (BatchSeed per query; the base seed for -batch, which the server
// derives per member itself), and the server evaluates with the same
// engine — so the printed answers, SSP estimates, and NDJSON summaries
// are bitwise what local evaluation with the same flags prints.
func runRemote(cfg remoteConfig, say func(string, ...any)) {
	f, err := os.Open(cfg.qfile)
	if err != nil {
		log.Fatal(err)
	}
	qs, err := probgraph.LoadGraphs(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if len(qs) == 0 {
		log.Fatalf("pgsearch: no query graphs in %s", cfg.qfile)
	}
	say("loaded %d query graph(s) from %s\n", len(qs), cfg.qfile)

	c := server.NewClient(cfg.url)
	if cfg.stream {
		runRemoteStream(c, cfg, qs)
		return
	}

	qStart := time.Now()
	var results []*server.QueryResponse
	if cfg.batch {
		breq := server.BatchRequest{
			Epsilon: cfg.epsilon, Delta: cfg.delta, Verifier: cfg.verifier,
			Plain: cfg.plain, Seed: cfg.seed, Workers: cfg.workers,
			TimeoutMS: cfg.timeout.Milliseconds(),
		}
		for _, q := range qs {
			breq.Queries = append(breq.Queries, *server.GraphToJSON(q))
		}
		var bresp server.BatchResponse
		remotePost(c, "/batch", &breq, &bresp)
		results = bresp.Results
	} else {
		for i, q := range qs {
			var resp server.QueryResponse
			remotePost(c, "/query", cfg.request(q, i), &resp)
			results = append(results, &resp)
		}
	}
	elapsed := time.Since(qStart)

	if cfg.jsonOut {
		printRemoteJSON(qs, results, elapsed)
		return
	}
	table := stats.NewTable("query results",
		"query", "answers", "struct", "pruned", "accepted", "verified", "time")
	for i, res := range results {
		table.AddRow(
			fmt.Sprintf("q%d(%de)", i, qs[i].NumEdges()),
			len(res.Answers),
			res.Stats.StructConfirmed,
			res.Stats.PrunedByUpper,
			res.Stats.AcceptedByLower,
			res.Stats.VerifyCandidates,
			msToDuration(res.Stats.TimeTotalMS),
		)
		if cfg.verbose {
			for k, gi := range res.Answers {
				ssp := res.SSP[gi]
				tag := fmt.Sprintf("SSP≈%.3f", ssp)
				if ssp == -1 {
					tag = "accepted by lower bound"
				}
				fmt.Printf("  q%d → %s (%s)\n", i, res.Names[k], tag)
			}
		}
	}
	table.Render(os.Stdout)
	fmt.Printf("%d queries in %v (workers=%d, batch=%v)\n",
		len(qs), elapsed.Round(time.Microsecond), cfg.workers, cfg.batch)
}

// request is query i on the wire. The client itself has no timeout:
// -timeout travels as timeout_ms and the server enforces it, answering a
// structured 504.
func (cfg remoteConfig) request(q *probgraph.Graph, i int) *server.QueryRequest {
	return &server.QueryRequest{
		Graph:   server.GraphToJSON(q),
		Epsilon: cfg.epsilon, Delta: cfg.delta, Verifier: cfg.verifier,
		Plain: cfg.plain, Seed: probgraph.BatchSeed(cfg.seed, i),
		Workers: cfg.workers, TimeoutMS: cfg.timeout.Milliseconds(),
	}
}

func marshal(v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return body
}

func remotePost(c *server.Client, path string, in, out any) {
	if err := c.Post(context.Background(), path, marshal(in), out); err != nil {
		remoteFatal(err)
	}
}

// remoteFatal maps a failed exchange onto pgsearch's exit codes: a 504,
// or a stream's timeout line, exits 3 — matching local -timeout expiry;
// everything else exits 1.
func remoteFatal(err error) {
	var we *server.Error
	if !errors.As(err, &we) {
		log.Fatalf("pgsearch: %v", err)
	}
	if we.Status == http.StatusGatewayTimeout {
		fmt.Fprintf(os.Stderr, "pgsearch: %s\n", we.Message)
		os.Exit(3)
	}
	log.Fatalf("pgsearch: server answered %d: %s", we.Status, we.Message)
}

// runRemoteStream mirrors local -stream over /query/stream: the server's
// match lines re-emit with the query index prepended, and each query ends
// with the summary shape local mode prints (the server summary's sorted
// answers are bitwise the local ones).
func runRemoteStream(c *server.Client, cfg remoteConfig, qs []*probgraph.Graph) {
	enc := json.NewEncoder(os.Stdout)
	for i, q := range qs {
		start := time.Now()
		sum, err := c.Stream(context.Background(), "/query/stream", marshal(cfg.request(q, i)),
			func(m server.StreamMatchJSON, _ []byte) error {
				return enc.Encode(streamMatchJSON{Query: i, Graph: m.Graph, Name: m.Name, SSP: m.SSP})
			})
		if err != nil {
			remoteFatal(err)
		}
		if sum.Answers == nil {
			sum.Answers = []int{}
		}
		if err := enc.Encode(streamSummaryJSON{
			Query: i, Done: true, Answers: sum.Answers, Count: sum.Count,
			TimeMS: float64(time.Since(start).Microseconds()) / 1000,
		}); err != nil {
			log.Fatal(err)
		}
	}
}

// printRemoteJSON prints the -json shape local mode prints, from wire
// responses.
func printRemoteJSON(qs []*probgraph.Graph, results []*server.QueryResponse, elapsed time.Duration) {
	out := struct {
		Results []queryJSON `json:"results"`
		TimeMS  float64     `json:"time_ms"`
	}{Results: []queryJSON{}, TimeMS: float64(elapsed.Microseconds()) / 1000}
	for i, res := range results {
		answers := res.Answers
		if answers == nil {
			answers = []int{}
		}
		names := res.Names
		if names == nil {
			names = []string{}
		}
		out.Results = append(out.Results, queryJSON{
			Query: i, Edges: qs[i].NumEdges(),
			Answers: answers, Names: names, SSP: res.SSP,
			Pruned:   res.Stats.PrunedByUpper,
			Accepted: res.Stats.AcceptedByLower,
			Verified: res.Stats.VerifyCandidates,
			TimeMS:   res.Stats.TimeTotalMS,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

func msToDuration(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Microsecond)
}
