// Command pggen generates a synthetic probabilistic graph database file in
// the text format understood by cmd/pgsearch and probgraph.LoadDataset.
//
// Usage:
//
//	pggen -o db.pgraph [-n 120] [-organisms 6] [-minv 10] [-maxv 16]
//	      [-meanprob 0.383] [-mutations 0.25] [-independent] [-seed 1]
//	      [-savesnap db.idx] [-format text|binary]
//	pggen -query [-from db.pgraph] [-qsize 6] [-qfrom 0] -o q.pgraph
//
// The generator mirrors the paper's experimental construction (§6):
// STRING-like PPI graphs with COG-style labels and max-rule JPTs over
// neighbor-edge sets; -independent drops correlations (the IND model).
//
// -savesnap additionally builds the full index (structural filter, feature
// mining, PMI) and writes it as one snapshot, ready for pgserve -snapshot
// or pgsearch -loadsnap — the offline step of the paper's offline/online
// split, done once at generation time. -format picks the snapshot
// encoding: text (the default, v5) or binary (v4, which pgserve opens via
// mmap for parse-free startup). The write is atomic (temp file + rename),
// so a crash mid-save never truncates an existing snapshot.
//
// -query switches to query-workload mode: instead of a database, write one
// connected query graph extracted from a database graph's certain
// structure (the paper's workload construction). -from names an existing
// database file; without it the database is generated in memory from the
// same flags, so a given seed always yields the same query.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"probgraph"
	"probgraph/internal/obs"
)

// main is a thin shell around run: os.Exit skips defers, so every defer
// (profile flushing above all) lives inside run, which only ever returns.
func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run executes pggen and returns its exit code: 0 success, 1 runtime
// error, 2 flag/validation error. Profiles are flushed on every path —
// including validation rejections — by the single deferred Flush.
func run(args []string, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pggen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	n := fs.Int("n", 120, "number of graphs")
	organisms := fs.Int("organisms", 6, "number of organism families")
	minV := fs.Int("minv", 10, "minimum vertices per graph")
	maxV := fs.Int("maxv", 16, "maximum vertices per graph")
	edgeFactor := fs.Float64("edgefactor", 1.5, "edges ≈ factor × vertices")
	labels := fs.Int("labels", 8, "vertex label alphabet size")
	meanProb := fs.Float64("meanprob", 0.383, "mean edge existence probability")
	maxGroup := fs.Int("maxgroup", 3, "neighbor-edge-set size cap")
	mutations := fs.Float64("mutations", 0.25, "per-graph edge rewiring rate")
	independent := fs.Bool("independent", false, "independent-edge model (IND) instead of correlated (COR)")
	seed := fs.Int64("seed", 1, "random seed")
	saveSnap := fs.String("savesnap", "", "also build the full index and write a snapshot to this file")
	format := fs.String("format", "text", "snapshot format for -savesnap: text (v5) or binary (v4, mmap-able)")
	queryMode := fs.Bool("query", false, "write a query graph instead of a database")
	from := fs.String("from", "", "query mode: extract from this database file (default: generate)")
	qsize := fs.Int("qsize", 6, "query mode: query size (edges)")
	qfrom := fs.Int("qfrom", 0, "query mode: index of the source graph")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile (generation + -savesnap index build) to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	profiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "pggen: %v\n", err)
		return 1
	}
	defer func() {
		if err := profiles.Flush(); err != nil {
			fmt.Fprintf(stderr, "pggen: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	// One-line rejections for out-of-range knobs, before any generation
	// work: probabilities must be valid, sizes positive.
	if *meanProb <= 0 || *meanProb > 1 {
		fmt.Fprintf(stderr, "pggen: -meanprob must be in (0,1], got %v\n", *meanProb)
		return 2
	}
	if *mutations < 0 || *mutations > 1 {
		fmt.Fprintf(stderr, "pggen: -mutations must be in [0,1], got %v\n", *mutations)
		return 2
	}
	if *n < 1 {
		fmt.Fprintf(stderr, "pggen: -n must be >= 1, got %d\n", *n)
		return 2
	}
	if *qsize < 1 {
		fmt.Fprintf(stderr, "pggen: -qsize must be >= 1, got %d\n", *qsize)
		return 2
	}
	if *qfrom < 0 {
		fmt.Fprintf(stderr, "pggen: -qfrom must be >= 0, got %d\n", *qfrom)
		return 2
	}

	opt := probgraph.DatasetOptions{
		NumGraphs: *n, Organisms: *organisms,
		MinVertices: *minV, MaxVertices: *maxV, EdgeFactor: *edgeFactor,
		Labels: *labels, MeanProb: *meanProb, MaxGroup: *maxGroup,
		Mutations: *mutations, Correlated: !*independent, Seed: *seed,
	}

	if *queryMode {
		if err := writeQuery(stderr, *from, *out, *qsize, *qfrom, *seed, opt); err != nil {
			fmt.Fprintf(stderr, "pggen: %v\n", err)
			return 1
		}
		return 0
	}

	db, err := probgraph.GeneratePPI(opt)
	if err != nil {
		fmt.Fprintf(stderr, "pggen: %v\n", err)
		return 1
	}

	if err := writeDataset(*out, db); err != nil {
		fmt.Fprintf(stderr, "pggen: %v\n", err)
		return 1
	}

	if *saveSnap != "" {
		sf, err := probgraph.ParseSnapshotFormat(*format)
		if err != nil {
			fmt.Fprintf(stderr, "pggen: %v\n", err)
			return 2
		}
		idxDB, err := probgraph.NewDatabase(db.Graphs, probgraph.DefaultBuildOptions())
		if err != nil {
			fmt.Fprintf(stderr, "pggen: %v\n", err)
			return 1
		}
		if err := idxDB.SaveFile(*saveSnap, sf); err != nil {
			fmt.Fprintf(stderr, "pggen: %v\n", err)
			return 1
		}
		feats := 0
		if pmi := idxDB.View().PMI; pmi != nil {
			feats = pmi.NumFeatures()
		}
		fmt.Fprintf(stderr, "pggen: wrote snapshot (%d PMI features) to %s\n", feats, *saveSnap)
	}

	totalV, totalE := 0, 0
	for _, pg := range db.Graphs {
		totalV += pg.G.NumVertices()
		totalE += pg.G.NumEdges()
	}
	fmt.Fprintf(stderr, "pggen: wrote %d graphs (avg %.1f vertices, %.1f edges) to %s\n",
		len(db.Graphs), float64(totalV)/float64(len(db.Graphs)),
		float64(totalE)/float64(len(db.Graphs)), orStdout(*out))
	return 0
}

// writeDataset saves db to path, or stdout when path is empty.
func writeDataset(path string, db *probgraph.Dataset) error {
	w := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return probgraph.SaveDataset(w, db)
}

// writeQuery extracts one connected query graph and writes it in the text
// codec pgsearch -qfile and the pgserve graph_text payload accept.
func writeQuery(stderr io.Writer, from, out string, qsize, qfrom int, seed int64, genOpt probgraph.DatasetOptions) error {
	var db *probgraph.Dataset
	if from != "" {
		f, err := os.Open(from)
		if err != nil {
			return err
		}
		db, err = probgraph.LoadDataset(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		var err error
		db, err = probgraph.GeneratePPI(genOpt)
		if err != nil {
			return err
		}
	}
	if len(db.Graphs) == 0 {
		return errors.New("empty database")
	}
	rng := rand.New(rand.NewSource(seed))
	src := db.Graphs[qfrom%len(db.Graphs)].G
	q := probgraph.ExtractQuery(src, qsize, rng)

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := probgraph.SaveGraph(w, q); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "pggen: wrote query %s (%d vertices, %d edges) to %s\n",
		q.Name(), q.NumVertices(), q.NumEdges(), orStdout(out))
	return nil
}

func orStdout(path string) string {
	if path == "" {
		return "stdout"
	}
	return path
}
