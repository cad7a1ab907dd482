// Command pgsearch answers T-PS queries over a database file produced by
// cmd/pggen: it builds the full index (structural filter + PMI), extracts
// or reads a query graph, and runs the filter-and-verify pipeline.
//
// Usage:
//
//	pgsearch -db db.pgraph [-epsilon 0.5] [-delta 2] [-qsize 6]
//	         [-qfrom 0] [-queries 5] [-qfile q.pgraph] [-verifier smp|exact|none]
//	         [-plain] [-workers 1] [-batch] [-seed 1] [-v] [-json]
//	         [-timeout 0] [-stream] [-trace] [-savesnap db.idx]
//	         [-format text|binary]
//	pgsearch -loadsnap db.idx ...   (start from a snapshot, no re-indexing)
//	pgsearch -server http://host:8091 -qfile q.pgraph ...   (remote mode)
//
// Queries are extracted from the certain graph of the graph at index
// -qfrom (rotating across -queries runs), matching the paper's workload
// construction — or read verbatim from -qfile (one or more graph blocks,
// as written by pggen -query). -queries 0 is accepted only with -savesnap,
// to convert or partition a snapshot without querying it.
//
// -savesnap persists the indexed database as one snapshot file (-format
// text writes the pgsnap v5 line format, -format binary the mmap-able v4
// layout); -loadsnap restores either without re-mining features or
// recomputing PMI bounds, so repeated sessions (and cmd/pgserve) skip the
// offline index build. Binary snapshots are opened via mmap: no full parse at startup.
// -json prints machine-readable results to stdout instead of tables.
// -savesnap with -partition N instead writes N contiguous range-shard
// snapshots (<savesnap>.shard<i>), one per cmd/pgproxy fleet member.
//
// There is one query path. -server sends the queries to a running pgserve
// (or pgproxy coordinator) over HTTP and requires -qfile. Without it,
// pgsearch serves the database it loaded from an in-process pgserve — no
// result cache, so every query is evaluated — and sends the same requests
// there, through the same wire codec. Every flag means the same in both
// modes, and both print the same bytes: a server's answers are
// bitwise-identical to the library's.
//
// -workers N evaluates candidate graphs on a pool of N goroutines (N < 0
// selects GOMAXPROCS; 0 is serial locally and the server's default
// remotely). -batch sends all queries as one /batch request, spreading
// the same pool across the queries. Both knobs change scheduling only:
// for a fixed -seed, every combination of -workers and -batch reports
// identical answers.
//
// -timeout D bounds the whole query run with a deadline on the client's
// context (a remote server sees the disconnect and cancels). On expiry,
// or on a server's 504, pgsearch prints a one-line error to stderr and
// exits 3 (distinct from exit 2 for bad flags and exit 1 for evaluation
// failures).
//
// -stream answers through /query/stream instead: one NDJSON line per
// verified match, written as verification admits it (arrival order), then
// one summary line per query with the sorted answer set — which is
// bitwise-identical to the answers the non-streaming run reports, at any
// -workers. -stream implies NDJSON output and excludes -batch.
//
// -trace asks the server for each response's span tree — pipeline stages
// (struct filter with its confirm span, relax, PMI prune, verify) with
// durations and item counts, rooted at query, batch or stream — and
// prints it to stderr as JSON, leaving stdout untouched. Traced and
// untraced runs return identical answers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"probgraph"
	"probgraph/internal/obs"
	"probgraph/internal/server"
	"probgraph/internal/stats"
)

// main is a thin shell around run: os.Exit skips defers, so every defer
// lives inside run, which only ever returns.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes pgsearch and returns its exit code: 0 success, 1 a failure
// (I/O, index build, evaluation), 2 a flag error, 3 an expired deadline.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pgsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "database file from pggen")
	loadSnap := fs.String("loadsnap", "", "snapshot file to load instead of -db (skips indexing)")
	saveSnap := fs.String("savesnap", "", "write the indexed database snapshot to this file")
	format := fs.String("format", "text", "snapshot format for -savesnap: text (v5) or binary (v4, mmap-able)")
	epsilon := fs.Float64("epsilon", 0.5, "probability threshold ε")
	delta := fs.Int("delta", 2, "subgraph distance threshold δ")
	qsize := fs.Int("qsize", 6, "query size (edges)")
	qfrom := fs.Int("qfrom", 0, "index of the graph to extract queries from")
	queries := fs.Int("queries", 5, "number of queries to run")
	qfile := fs.String("qfile", "", "read query graph(s) from this file instead of extracting")
	verifier := fs.String("verifier", "smp", "verifier: smp, exact, none")
	plain := fs.Bool("plain", false, "use plain SSPBound instead of OPT-SSPBound")
	workers := fs.Int("workers", 1, "candidate-evaluation worker pool size (<0 = GOMAXPROCS)")
	batch := fs.Bool("batch", false, "run all queries as one /batch request")
	seed := fs.Int64("seed", 1, "random seed")
	verbose := fs.Bool("v", false, "print per-answer SSP estimates")
	jsonOut := fs.Bool("json", false, "print results as JSON to stdout (suppresses tables)")
	timeout := fs.Duration("timeout", 0, "deadline for the query run (0 = none; expiry exits 3)")
	stream := fs.Bool("stream", false, "stream matches as NDJSON while verification admits them")
	trace := fs.Bool("trace", false, "print each response's span tree (pipeline stages with durations and item counts) to stderr as JSON")
	serverURL := fs.String("server", "", "query a running pgserve/pgproxy at this base URL instead of the loaded database (requires -qfile)")
	partition := fs.Int("partition", 0, "with -savesnap: split the database into N contiguous range shards, writing <savesnap>.shard<i> files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "pgsearch: "+format+"\n", args...)
		return 2
	}

	if *serverURL != "" {
		// Remote mode holds no database: queries must come from -qfile, and
		// every local-index flag is meaningless.
		if *qfile == "" {
			return usage("-server requires -qfile")
		}
		for _, f := range []struct {
			name string
			set  bool
		}{{"-db", *dbPath != ""}, {"-loadsnap", *loadSnap != ""}, {"-savesnap", *saveSnap != ""}, {"-partition", *partition != 0}} {
			if f.set {
				return usage("%s cannot be combined with -server", f.name)
			}
		}
	} else if (*dbPath == "") == (*loadSnap == "") {
		fmt.Fprintln(stderr, "pgsearch: give exactly one of -db or -loadsnap")
		fs.Usage()
		return 2
	}
	if *partition != 0 && (*partition < 1 || *saveSnap == "") {
		return usage("-partition needs a positive shard count and -savesnap")
	}
	// Reject bad flags up front: they would otherwise surface only after
	// the (possibly expensive) index build.
	if !(*epsilon > 0 && *epsilon <= 1) {
		return usage("-epsilon must be in (0,1], got %v", *epsilon)
	}
	if *delta < 0 {
		return usage("-delta must be >= 0, got %d", *delta)
	}
	if *qsize < 1 {
		return usage("-qsize must be >= 1, got %d", *qsize)
	}
	if *qfrom < 0 {
		return usage("-qfrom must be >= 0, got %d", *qfrom)
	}
	// Without -qfile the run extracts -queries queries; extracting none
	// only makes sense when the run exists to write a snapshot.
	if *qfile == "" && (*queries < 0 || *queries == 0 && *saveSnap == "") {
		return usage("-queries must be >= 1 (0 only with -savesnap), got %d", *queries)
	}
	if *timeout < 0 {
		return usage("-timeout must be >= 0, got %v", *timeout)
	}
	if *stream && *batch {
		return usage("-stream and -batch are mutually exclusive")
	}
	var sf probgraph.SnapshotFormat
	if *saveSnap != "" {
		var err error
		if sf, err = probgraph.ParseSnapshotFormat(*format); err != nil {
			return usage("%v", err)
		}
	}
	s := &search{
		tmpl: server.QueryRequest{Epsilon: *epsilon, Delta: *delta, Verifier: *verifier,
			Plain: *plain, Seed: *seed, Workers: *workers, Trace: *trace},
		batch: *batch, verbose: *verbose, jsonOut: *jsonOut,
		stdout: stdout, stderr: stderr,
	}
	// The server's own check of the request knobs (the verifier among
	// them), on an empty graph, so no file is opened for a bad flag.
	probe := s.tmpl
	probe.Graph = &server.GraphJSON{}
	if _, _, err := probe.Check(); err != nil {
		return usage("%v", err)
	}
	say := func(format string, args ...any) {
		// -stream shares stdout with the NDJSON lines, so it implies the
		// same chatter suppression as -json.
		if !*jsonOut && !*stream {
			fmt.Fprintf(stdout, format, args...)
		}
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "pgsearch: %v\n", err)
		return 1
	}

	s.c = server.NewClient(*serverURL)
	var view *probgraph.DatabaseView
	if *serverURL == "" {
		db, err := openDatabase(*dbPath, *loadSnap, say)
		if err != nil {
			return fail(err)
		}
		if *saveSnap != "" {
			if err := saveSnapshot(db, *saveSnap, *format, sf, *partition, say); err != nil {
				return fail(err)
			}
		}
		view = db.View()
		// Local mode is -server mode against an in-process pgserve over the
		// loaded database: no result cache, so every query is evaluated,
		// and a request with workers 0 stays serial.
		s.c = server.NewHandlerClient(server.New(db, server.Options{CacheSize: -1, SlowlogSize: -1, Workers: 1}).Handler())
	}

	if *qfile != "" {
		var err error
		if s.qs, err = loadQueries(*qfile); err != nil {
			return fail(err)
		}
		say("loaded %d query graph(s) from %s\n", len(s.qs), *qfile)
	} else {
		rng := rand.New(rand.NewSource(*seed))
		for i := 0; i < *queries; i++ {
			s.qs = append(s.qs, probgraph.ExtractQuery(view.Graphs[(*qfrom+i)%view.Len()].G, *qsize, rng))
		}
	}

	// The whole query run shares one context: -timeout bounds it, and the
	// server cancels at candidate granularity on expiry.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	answer := s.answer
	if *stream {
		answer = s.stream
	}
	err := answer(ctx)
	var we *server.Error
	switch {
	case err == nil:
		return 0
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		fmt.Fprintf(stderr, "pgsearch: query run exceeded -timeout %v\n", *timeout)
		return 3
	case errors.As(err, &we) && we.Status == http.StatusGatewayTimeout:
		fmt.Fprintf(stderr, "pgsearch: server timeout: %s\n", we.Message)
		return 3
	}
	return fail(err)
}

// openDatabase restores the snapshot at snap, or indexes the dataset at
// path.
func openDatabase(path, snap string, say func(string, ...any)) (*probgraph.Database, error) {
	start := time.Now()
	if snap != "" {
		db, err := probgraph.OpenSnapshot(snap)
		if err != nil {
			return nil, err
		}
		say("loaded snapshot %s: %d graphs in %v (no re-indexing)\n",
			snap, db.Len(), time.Since(start).Round(time.Millisecond))
		return db, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	raw, err := probgraph.LoadDataset(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	say("loaded %d probabilistic graphs\n", len(raw.Graphs))
	db, err := probgraph.NewDatabase(raw.Graphs, probgraph.DefaultBuildOptions())
	if err != nil {
		return nil, err
	}
	say("indexed in %v: %d PMI features, %.1f KB index\n\n",
		time.Since(start), db.View().PMI.NumFeatures(), float64(db.Build().IndexSizeBytes)/1024)
	return db, nil
}

// saveSnapshot writes db to path, or with partition > 0 one snapshot per
// contiguous range shard: <path>.shard<i> files each carry the full
// feature vocabulary plus that range's graphs, structural count rows, and
// PMI columns — what cmd/pgproxy's fleet serves (see internal/cluster).
func saveSnapshot(db *probgraph.Database, path, format string, sf probgraph.SnapshotFormat, partition int, say func(string, ...any)) error {
	if partition == 0 {
		if err := db.SaveFile(path, sf); err != nil {
			return err
		}
		say("saved %s snapshot to %s\n", format, path)
		return nil
	}
	ranges, err := probgraph.PartitionRanges(db.Len(), partition)
	if err != nil {
		return err
	}
	for i, r := range ranges {
		shard := fmt.Sprintf("%s.shard%d", path, i)
		if err := db.SaveRangeFile(shard, r[0], r[1], sf); err != nil {
			return err
		}
		say("saved %s shard %d [%d,%d) to %s\n", format, i, r[0], r[1], shard)
	}
	return nil
}

// loadQueries reads the query graphs of a -qfile.
func loadQueries(path string) ([]*probgraph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	qs, err := probgraph.LoadGraphs(f)
	if err == nil && len(qs) == 0 {
		err = fmt.Errorf("no query graphs in %s", path)
	}
	return qs, err
}

// search is one query run against one server, in-process or remote.
type search struct {
	c                       *server.Client
	tmpl                    server.QueryRequest // every knob but graph
	qs                      []*probgraph.Graph
	batch, verbose, jsonOut bool
	stdout, stderr          io.Writer
}

// request is query i on the wire. Seeds derive per query with BatchSeed,
// exactly as /batch derives its members' from the base seed, so -batch
// changes scheduling only, never answers.
func (s *search) request(i int) []byte {
	req := s.tmpl
	req.Graph = server.GraphToJSON(s.qs[i])
	req.Seed = probgraph.BatchSeed(s.tmpl.Seed, i)
	body, _ := json.Marshal(&req) // plain fields: cannot fail
	return body
}

// printTrace writes a response's span tree to stderr (nil when the run is
// untraced). Like any diagnostic on stderr, a failed write is not an
// error of the run.
func (s *search) printTrace(tr *obs.SpanNode) {
	if tr == nil {
		return
	}
	enc := json.NewEncoder(s.stderr)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Trace *obs.SpanNode `json:"trace"`
	}{tr})
}

// answer runs every query through /query (or all of them through one
// /batch) and prints the results as the table or as JSON.
func (s *search) answer(ctx context.Context) error {
	start := time.Now()
	var results []*server.QueryResponse
	switch {
	case s.batch && len(s.qs) == 0:
		// The server refuses an empty batch; there is nothing to ask.
	case s.batch:
		t := s.tmpl
		breq := server.BatchRequest{Epsilon: t.Epsilon, Delta: t.Delta, Verifier: t.Verifier,
			Plain: t.Plain, Seed: t.Seed, Workers: t.Workers, Trace: t.Trace}
		for _, q := range s.qs {
			breq.Queries = append(breq.Queries, *server.GraphToJSON(q))
		}
		body, _ := json.Marshal(&breq) // plain fields: cannot fail
		var bresp server.BatchResponse
		if err := s.c.Post(ctx, "/batch", body, &bresp); err != nil {
			return err
		}
		results = bresp.Results
		s.printTrace(bresp.Trace)
	default:
		for i := range s.qs {
			var resp server.QueryResponse
			if err := s.c.Post(ctx, "/query", s.request(i), &resp); err != nil {
				return err
			}
			results = append(results, &resp)
			s.printTrace(resp.Trace)
		}
	}
	elapsed := time.Since(start)

	if s.jsonOut {
		out := struct {
			Results []queryJSON `json:"results"`
			TimeMS  float64     `json:"time_ms"`
		}{Results: []queryJSON{}, TimeMS: float64(elapsed.Microseconds()) / 1000}
		for i, res := range results {
			out.Results = append(out.Results, queryJSON{
				Query: i, Edges: s.qs[i].NumEdges(),
				Answers: res.Answers, Names: res.Names, SSP: res.SSP,
				Pruned:   res.Stats.PrunedByUpper,
				Accepted: res.Stats.AcceptedByLower,
				Verified: res.Stats.VerifyCandidates,
				TimeMS:   res.Stats.TimeTotalMS,
			})
		}
		enc := json.NewEncoder(s.stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	table := stats.NewTable("query results",
		"query", "answers", "struct", "pruned", "accepted", "verified", "time")
	for i, res := range results {
		table.AddRow(
			fmt.Sprintf("q%d(%de)", i, s.qs[i].NumEdges()),
			len(res.Answers),
			res.Stats.StructConfirmed,
			res.Stats.PrunedByUpper,
			res.Stats.AcceptedByLower,
			res.Stats.VerifyCandidates,
			time.Duration(res.Stats.TimeTotalMS*float64(time.Millisecond)).Round(time.Microsecond),
		)
		if s.verbose {
			for k, gi := range res.Answers {
				ssp, verified := res.SSP[gi]
				tag := fmt.Sprintf("SSP≈%.3f", ssp)
				switch {
				case !verified:
					tag = "not verified" // -verifier none
				case ssp == -1:
					tag = "accepted by lower bound"
				}
				fmt.Fprintf(s.stdout, "  q%d → %s (%s)\n", i, res.Names[k], tag)
			}
		}
	}
	table.Render(s.stdout)
	_, err := fmt.Fprintf(s.stdout, "%d queries in %v (workers=%d, batch=%v)\n",
		len(s.qs), elapsed.Round(time.Microsecond), s.tmpl.Workers, s.batch)
	return err
}

// queryJSON is one query's machine-readable result; answers and ssp are
// exactly the library's (ssp -1 marks direct lower-bound accepts).
type queryJSON struct {
	Query    int             `json:"query"`
	Edges    int             `json:"edges"`
	Answers  []int           `json:"answers"`
	Names    []string        `json:"names"`
	SSP      map[int]float64 `json:"ssp"`
	Pruned   int             `json:"pruned"`
	Accepted int             `json:"accepted"`
	Verified int             `json:"verified"`
	TimeMS   float64         `json:"time_ms"`
}

// streamMatchJSON is one -stream NDJSON line: a verified match of query
// Query, delivered in arrival order.
type streamMatchJSON struct {
	Query int     `json:"query"`
	Graph int     `json:"graph"`
	Name  string  `json:"name"`
	SSP   float64 `json:"ssp"`
}

// streamSummaryJSON closes one query's stream with the sorted answer set —
// bitwise-identical to the non-streaming run's answers.
type streamSummaryJSON struct {
	Query   int     `json:"query"`
	Done    bool    `json:"done"`
	Answers []int   `json:"answers"`
	Count   int     `json:"count"`
	TimeMS  float64 `json:"time_ms"`
}

// stream answers every query through /query/stream, re-emitting the
// server's match lines with the query index prepended the moment they
// arrive, then the query's summary.
func (s *search) stream(ctx context.Context) error {
	enc := json.NewEncoder(s.stdout)
	for i := range s.qs {
		start := time.Now()
		sum, err := s.c.Stream(ctx, "/query/stream", s.request(i),
			func(m server.StreamMatchJSON, _ []byte) error {
				return enc.Encode(streamMatchJSON{Query: i, Graph: m.Graph, Name: m.Name, SSP: m.SSP})
			})
		if err != nil {
			return err
		}
		s.printTrace(sum.Trace)
		if err := enc.Encode(streamSummaryJSON{
			Query: i, Done: true, Answers: sum.Answers, Count: sum.Count,
			TimeMS: float64(time.Since(start).Microseconds()) / 1000,
		}); err != nil {
			return err
		}
	}
	return nil
}
