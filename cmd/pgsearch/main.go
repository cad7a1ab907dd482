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
// as written by pggen -query).
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
// -server runs the same queries against a running pgserve (or pgproxy
// coordinator) over HTTP instead of evaluating locally; it requires
// -qfile and prints exactly what local evaluation with the same flags
// would — the server's answers are bitwise-identical to the library's.
//
// -workers N evaluates candidate graphs on a pool of N goroutines (N < 0
// selects GOMAXPROCS). -batch additionally runs all queries through one
// QueryBatchCtx call, spreading the same pool across the queries. Both knobs
// change scheduling only: for a fixed -seed, every combination of
// -workers and -batch reports identical answers.
//
// -timeout D bounds the whole query run with a deadline; on expiry
// pgsearch prints a one-line error to stderr and exits 3 (distinct from
// exit 2 for bad flags and exit 1 for evaluation failures).
//
// -stream answers with View.QueryStream instead: one NDJSON line per
// verified match, written as verification admits it (arrival order), then
// one summary line per query with the sorted answer set — which is
// bitwise-identical to the answers the non-streaming run reports, at any
// -workers. -stream implies NDJSON output and excludes -batch.
//
// -trace prints each query's span tree — pipeline stages (struct filter
// with its confirm span, relax, PMI prune, verify) with durations and
// item counts — to stderr as JSON, leaving stdout untouched. Traced and
// untraced runs return identical answers.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"probgraph"
	"probgraph/internal/obs"
	"probgraph/internal/stats"
)

// tracedCtx attaches a fresh trace root to ctx when -trace is on. The
// returned done ends the root and prints the span tree to stderr (stdout
// stays reserved for results and NDJSON). Tracing is observational only:
// answers and stats are identical with and without it.
func tracedCtx(ctx context.Context, enabled bool, label string) (context.Context, func()) {
	if !enabled {
		return ctx, func() {}
	}
	tr := obs.NewTrace()
	root := tr.Root(label)
	//pgvet:spanok ownership transfers to the returned done closure, which ends root
	return obs.ContextWithSpan(ctx, root), func() {
		root.End()
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			TraceID string        `json:"trace_id"`
			Trace   *obs.SpanNode `json:"trace"`
		}{tr.ID(), tr.Tree()}); err != nil {
			log.Fatal(err)
		}
	}
}

func main() {
	dbPath := flag.String("db", "", "database file from pggen")
	loadSnap := flag.String("loadsnap", "", "snapshot file to load instead of -db (skips indexing)")
	saveSnap := flag.String("savesnap", "", "write the indexed database snapshot to this file")
	format := flag.String("format", "text", "snapshot format for -savesnap: text (v5) or binary (v4, mmap-able)")
	epsilon := flag.Float64("epsilon", 0.5, "probability threshold ε")
	delta := flag.Int("delta", 2, "subgraph distance threshold δ")
	qsize := flag.Int("qsize", 6, "query size (edges)")
	qfrom := flag.Int("qfrom", 0, "index of the graph to extract queries from")
	queries := flag.Int("queries", 5, "number of queries to run")
	qfile := flag.String("qfile", "", "read query graph(s) from this file instead of extracting")
	verifier := flag.String("verifier", "smp", "verifier: smp, exact, none")
	plain := flag.Bool("plain", false, "use plain SSPBound instead of OPT-SSPBound")
	workers := flag.Int("workers", 1, "candidate-evaluation worker pool size (<0 = GOMAXPROCS)")
	batch := flag.Bool("batch", false, "run all queries through one QueryBatchCtx call")
	seed := flag.Int64("seed", 1, "random seed")
	verbose := flag.Bool("v", false, "print per-answer SSP estimates")
	jsonOut := flag.Bool("json", false, "print results as JSON to stdout (suppresses tables)")
	timeout := flag.Duration("timeout", 0, "deadline for the query run (0 = none; expiry exits 3)")
	stream := flag.Bool("stream", false, "stream matches as NDJSON while verification admits them")
	trace := flag.Bool("trace", false, "print each query's span tree (pipeline stages with durations and item counts) to stderr as JSON")
	serverURL := flag.String("server", "", "query a running pgserve/pgproxy at this base URL instead of evaluating locally (requires -qfile)")
	partition := flag.Int("partition", 0, "with -savesnap: split the database into N contiguous range shards, writing <savesnap>.shard<i> files")
	flag.Parse()

	if *serverURL != "" {
		// Remote mode holds no database: queries must come from -qfile, and
		// every local-index flag is meaningless.
		if *qfile == "" {
			fmt.Fprintln(os.Stderr, "pgsearch: -server requires -qfile")
			os.Exit(2)
		}
		for flagName, set := range map[string]bool{
			"-db": *dbPath != "", "-loadsnap": *loadSnap != "", "-savesnap": *saveSnap != "",
			"-partition": *partition != 0, "-trace": *trace,
		} {
			if set {
				fmt.Fprintf(os.Stderr, "pgsearch: %s cannot be combined with -server (use trace=1 against the server for traces)\n", flagName)
				os.Exit(2)
			}
		}
	} else if (*dbPath == "") == (*loadSnap == "") {
		fmt.Fprintln(os.Stderr, "pgsearch: give exactly one of -db or -loadsnap")
		flag.Usage()
		os.Exit(2)
	}
	if *partition != 0 && (*partition < 1 || *saveSnap == "") {
		fmt.Fprintln(os.Stderr, "pgsearch: -partition needs a positive shard count and -savesnap")
		os.Exit(2)
	}
	// Reject out-of-range thresholds up front: a bad ε/δ would otherwise
	// surface only after the (possibly expensive) index build.
	if *epsilon <= 0 || *epsilon > 1 {
		fmt.Fprintf(os.Stderr, "pgsearch: -epsilon must be in (0,1], got %v\n", *epsilon)
		os.Exit(2)
	}
	if *delta < 0 {
		fmt.Fprintf(os.Stderr, "pgsearch: -delta must be >= 0, got %d\n", *delta)
		os.Exit(2)
	}
	if *qsize < 1 {
		fmt.Fprintf(os.Stderr, "pgsearch: -qsize must be >= 1, got %d\n", *qsize)
		os.Exit(2)
	}
	if *timeout < 0 {
		fmt.Fprintf(os.Stderr, "pgsearch: -timeout must be >= 0, got %v\n", *timeout)
		os.Exit(2)
	}
	if *stream && *batch {
		fmt.Fprintln(os.Stderr, "pgsearch: -stream and -batch are mutually exclusive")
		os.Exit(2)
	}
	say := func(format string, args ...any) {
		// -stream shares stdout with the NDJSON lines, so it implies the
		// same chatter suppression as -json.
		if !*jsonOut && !*stream {
			fmt.Printf(format, args...)
		}
	}

	if *serverURL != "" {
		runRemote(remoteConfig{
			url: *serverURL, qfile: *qfile,
			epsilon: *epsilon, delta: *delta, verifier: *verifier, plain: *plain,
			seed: *seed, workers: *workers, batch: *batch, stream: *stream,
			jsonOut: *jsonOut, verbose: *verbose, timeout: *timeout,
		}, say)
		return
	}

	start := time.Now()
	var db *probgraph.Database
	if *loadSnap != "" {
		var err error
		db, err = probgraph.OpenSnapshot(*loadSnap)
		if err != nil {
			log.Fatal(err)
		}
		say("loaded snapshot %s: %d graphs in %v (no re-indexing)\n",
			*loadSnap, db.Len(), time.Since(start).Round(time.Millisecond))
	} else {
		f, err := os.Open(*dbPath)
		if err != nil {
			log.Fatal(err)
		}
		raw, err := probgraph.LoadDataset(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		say("loaded %d probabilistic graphs\n", len(raw.Graphs))
		db, err = probgraph.NewDatabase(raw.Graphs, probgraph.DefaultBuildOptions())
		if err != nil {
			log.Fatal(err)
		}
		say("indexed in %v: %d PMI features, %.1f KB index\n\n",
			time.Since(start), db.View().PMI.NumFeatures(), float64(db.Build().IndexSizeBytes)/1024)
	}
	if *saveSnap != "" {
		sf, err := probgraph.ParseSnapshotFormat(*format)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgsearch: %v\n", err)
			os.Exit(2)
		}
		if *partition > 0 {
			// One snapshot per contiguous range shard: <base>.shard<i> files
			// each carry the full feature vocabulary plus that range's
			// graphs, structural count rows, and PMI columns — what
			// cmd/pgproxy's fleet serves (see internal/cluster).
			ranges, err := probgraph.PartitionRanges(db.Len(), *partition)
			if err != nil {
				log.Fatal(err)
			}
			for i, r := range ranges {
				path := fmt.Sprintf("%s.shard%d", *saveSnap, i)
				if err := db.SaveRangeFile(path, r[0], r[1], sf); err != nil {
					log.Fatal(err)
				}
				say("saved %s shard %d [%d,%d) to %s\n", *format, i, r[0], r[1], path)
			}
		} else {
			if err := db.SaveFile(*saveSnap, sf); err != nil {
				log.Fatal(err)
			}
			say("saved %s snapshot to %s\n", *format, *saveSnap)
		}
	}

	// pgsearch never mutates: every query below reads this one view.
	view := db.View()

	var vk probgraph.VerifierKind
	switch *verifier {
	case "smp":
		vk = probgraph.VerifierSMP
	case "exact":
		vk = probgraph.VerifierExact
	case "none":
		vk = probgraph.VerifierNone
	default:
		log.Fatalf("unknown verifier %q", *verifier)
	}

	var qs []*probgraph.Graph
	if *qfile != "" {
		f, err := os.Open(*qfile)
		if err != nil {
			log.Fatal(err)
		}
		qs, err = probgraph.LoadGraphs(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if len(qs) == 0 {
			log.Fatalf("pgsearch: no query graphs in %s", *qfile)
		}
		say("loaded %d query graph(s) from %s\n", len(qs), *qfile)
	} else {
		rng := rand.New(rand.NewSource(*seed))
		qs = make([]*probgraph.Graph, *queries)
		for i := range qs {
			src := view.Graphs[(*qfrom+i)%view.Len()].G
			qs[i] = probgraph.ExtractQuery(src, *qsize, rng)
		}
	}

	// The whole query run shares one context; -timeout bounds it and the
	// engine cancels at candidate granularity on expiry.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	exitOnDeadline := func(err error) {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "pgsearch: query run exceeded -timeout %v\n", *timeout)
			os.Exit(3)
		}
	}

	qo := probgraph.QueryOptions{
		Epsilon: *epsilon, Delta: *delta,
		OptBounds: !*plain, Verifier: vk,
		Seed: *seed, Concurrency: *workers,
	}
	if *stream {
		runStream(ctx, view, qs, qo, *trace, exitOnDeadline)
		return
	}

	qStart := time.Now()
	results := make([]*probgraph.Result, len(qs))
	if *batch {
		bctx, done := tracedCtx(ctx, *trace, "batch")
		rs, err := view.QueryBatchCtx(bctx, qs, qo)
		done()
		if err != nil {
			exitOnDeadline(err)
			log.Fatal(err)
		}
		results = rs
	} else {
		for i, q := range qs {
			// Same per-query seed derivation as QueryBatchCtx, so -batch
			// changes scheduling only, never answers.
			qo.Seed = probgraph.BatchSeed(*seed, i)
			qctx, done := tracedCtx(ctx, *trace, fmt.Sprintf("q%d", i))
			res, err := view.QueryCtx(qctx, q, qo)
			done()
			if err != nil {
				exitOnDeadline(err)
				log.Fatal(err)
			}
			results[i] = res
		}
	}
	elapsed := time.Since(qStart)

	if *jsonOut {
		printJSON(qs, results, view, elapsed)
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
			res.Stats.TimeTotal.Round(time.Microsecond),
		)
		if *verbose {
			for _, gi := range res.Answers {
				ssp := res.SSP[gi]
				tag := fmt.Sprintf("SSP≈%.3f", ssp)
				if ssp == -1 {
					tag = "accepted by lower bound"
				}
				fmt.Printf("  q%d → %s (%s)\n", i, view.Graphs[gi].G.Name(), tag)
			}
		}
	}
	table.Render(os.Stdout)
	fmt.Printf("%d queries in %v (workers=%d, batch=%v)\n",
		len(qs), elapsed.Round(time.Microsecond), *workers, *batch)
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

// runStream answers every query through View.QueryStream, printing
// matches the moment verification admits them. Per-query seeds derive
// exactly as in the non-streaming path (BatchSeed), so the summary line's
// sorted answers match a plain run with the same flags.
func runStream(ctx context.Context, view *probgraph.DatabaseView, qs []*probgraph.Graph,
	opt probgraph.QueryOptions, trace bool, exitOnDeadline func(error)) {
	enc := json.NewEncoder(os.Stdout)
	for i, q := range qs {
		qo := opt
		qo.Seed = probgraph.BatchSeed(opt.Seed, i)
		start := time.Now()
		var answers []int
		qctx, done := tracedCtx(ctx, trace, fmt.Sprintf("q%d", i))
		for m, err := range view.QueryStream(qctx, q, qo) {
			if err != nil {
				exitOnDeadline(err)
				log.Fatal(err)
			}
			if err := enc.Encode(streamMatchJSON{
				Query: i, Graph: m.Graph, Name: view.Graphs[m.Graph].G.Name(), SSP: m.SSP,
			}); err != nil {
				log.Fatal(err)
			}
			answers = append(answers, m.Graph)
		}
		done()
		sort.Ints(answers)
		if answers == nil {
			answers = []int{}
		}
		if err := enc.Encode(streamSummaryJSON{
			Query: i, Done: true, Answers: answers, Count: len(answers),
			TimeMS: float64(time.Since(start).Microseconds()) / 1000,
		}); err != nil {
			log.Fatal(err)
		}
	}
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

func printJSON(qs []*probgraph.Graph, results []*probgraph.Result, view *probgraph.DatabaseView, elapsed time.Duration) {
	out := struct {
		Results []queryJSON `json:"results"`
		TimeMS  float64     `json:"time_ms"`
	}{Results: []queryJSON{}, TimeMS: float64(elapsed.Microseconds()) / 1000}
	for i, res := range results {
		answers := res.Answers
		if answers == nil {
			answers = []int{}
		}
		names := make([]string, len(answers))
		for k, gi := range answers {
			names[k] = view.Graphs[gi].G.Name()
		}
		out.Results = append(out.Results, queryJSON{
			Query: i, Edges: qs[i].NumEdges(),
			Answers: answers, Names: names, SSP: res.SSP,
			Pruned:   res.Stats.PrunedByUpper,
			Accepted: res.Stats.AcceptedByLower,
			Verified: res.Stats.VerifyCandidates,
			TimeMS:   float64(res.Stats.TimeTotal.Microseconds()) / 1000,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}
