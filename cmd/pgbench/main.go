// Command pgbench reproduces the paper's evaluation section, and nothing
// else: it runs the sweep behind every figure (9a–14, Figure 11 superseded
// by the index's exact cells) on synthetic PPI-like data and prints
// paper-style series tables. Performance is tracked by the
// ledger under bench/ (see bench/README.md), not here.
//
// Usage:
//
//	pgbench [-scale tiny|small|full] [-fig all|9a|9b|10|12|13|14]
//	        [-workers N] [-seed N] [-json out.json]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Absolute timings are machine-dependent; the reproduction target is the
// shape of each series (see README's reproduction notes).
//
// -workers N runs every query's candidate pipeline on a pool of N
// goroutines (results are unchanged; only timings move).
//
// -json out.json additionally writes every produced table as
// machine-readable series — figure name, headers, raw rows, per-column
// numeric series against the first column as x, and the figure's wall
// time. Figures, series, and rows appear in a fixed order, and nothing in
// the export besides wall_ms depends on the clock.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"probgraph/internal/experiments"
	"probgraph/internal/obs"
	"probgraph/internal/stats"
)

// seriesJSON is one y-column of a table plotted against the first column.
type seriesJSON struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// figureJSON is one table's machine-readable export.
type figureJSON struct {
	Figure  string       `json:"figure"`
	Title   string       `json:"title"`
	Headers []string     `json:"headers"`
	Rows    [][]string   `json:"rows"`
	Series  []seriesJSON `json:"series"`
	WallMS  float64      `json:"wall_ms"`
}

// figureNames are the figures pgbench runs, in order.
var figureNames = []string{"9a", "9b", "10", "12", "13", "14"}

// main is a thin shell around run: os.Exit skips defers, so every defer
// (profile flushing above all) lives inside run, which only ever returns.
func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes pgbench and returns its exit code: 0 success, 1 runtime
// error, 2 flag error. The single deferred Flush makes profile output
// exit-safe on every path.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("pgbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.String("scale", "small", "experiment scale: tiny, small, full")
	fig := fs.String("fig", "all", "figure to run: all, "+strings.Join(figureNames, ", "))
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 1, "candidate-evaluation worker pool size (<0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write machine-readable per-figure series to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile covering index build + figures to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC) to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	profiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "pgbench: %v\n", err)
		return 1
	}
	defer func() {
		if err := profiles.Flush(); err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *fig != "all" && !slices.ContainsFunc(figureNames, func(name string) bool { return strings.EqualFold(*fig, name) }) {
		fmt.Fprintf(stderr, "pgbench: unknown -fig %q: want all or one of %s (Figure 11 is superseded)\n", *fig, strings.Join(figureNames, ", "))
		return 2
	}

	start := time.Now()
	fmt.Fprintf(stdout, "pgbench: scale=%s fig=%s seed=%d workers=%d\n", *scale, *fig, *seed, *workers)
	env, err := experiments.NewEnv(experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers})
	if err != nil {
		fmt.Fprintf(stderr, "pgbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "database: %d graphs, %d PMI features, index built in %v\n\n",
		env.DB.Len(), env.DB.Build().Features,
		env.DB.Build().FeatureTime+env.DB.Build().PMITime+env.DB.Build().StructTime)

	var figures []figureJSON
	want := func(name string) bool { return *fig == "all" || strings.EqualFold(*fig, name) }
	// runFig executes one figure, renders its tables, and records them
	// with the figure's wall time split evenly across its tables.
	runFig := func(name string, f func() ([]*stats.Table, error)) error {
		t0 := time.Now()
		tables, err := f()
		wall := float64(time.Since(t0).Microseconds()) / 1000
		if err != nil {
			return err
		}
		for _, t := range tables {
			t.Render(stdout)
			fmt.Fprintln(stdout)
			figures = append(figures, tableJSON(name, t, wall/float64(len(tables))))
		}
		return nil
	}
	one := func(f func() (*stats.Table, error)) func() ([]*stats.Table, error) {
		return func() ([]*stats.Table, error) {
			t, err := f()
			if err != nil {
				return nil, err
			}
			return []*stats.Table{t}, nil
		}
	}
	two := func(f func() (*stats.Table, *stats.Table, error)) func() ([]*stats.Table, error) {
		return func() ([]*stats.Table, error) {
			a, b, err := f()
			if err != nil {
				return nil, err
			}
			return []*stats.Table{a, b}, nil
		}
	}

	type figureRun struct {
		name string
		on   bool
		f    func() ([]*stats.Table, error)
	}
	for _, fr := range []figureRun{
		{"9a", want("9a"), one(env.Fig9a)},
		{"9b", want("9b"), one(env.Fig9b)},
		{"10", want("10"), two(env.Fig10)},
		{"12", want("12"), env.Fig12},
		{"13", want("13"), one(env.Fig13)},
		{"14", want("14"), one(env.Fig14)},
	} {
		if !fr.on {
			continue
		}
		if err := runFig(fr.name, fr.f); err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
	}

	// Profiles cover build + figures: flush here so the JSON export stays
	// out of the measurement. The deferred Flush is idempotent, so this
	// early call costs the later one nothing.
	if err := profiles.Flush(); err != nil {
		fmt.Fprintf(stderr, "pgbench: %v\n", err)
		return 1
	}

	if *jsonPath != "" {
		out := struct {
			Scale   string       `json:"scale"`
			Seed    int64        `json:"seed"`
			Workers int          `json:"workers"`
			WallMS  float64      `json:"wall_ms"`
			Figures []figureJSON `json:"figures"`
		}{*scale, *seed, *workers, float64(time.Since(start).Microseconds()) / 1000, figures}
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "pgbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d figure series to %s\n", len(figures), *jsonPath)
	}
	fmt.Fprintf(stdout, "pgbench done in %v\n", time.Since(start))
	return 0
}

// tableJSON converts a rendered table to its export form: raw rows always,
// plus numeric series (per non-x column) over the cells that are numbers.
// A float cell exports the value it was given, not its 4-digit rendering;
// any other cell counts when its rendering parses as a number. Non-numeric
// cells (verifier names, "n/a") simply omit that point, so a series' x and
// y stay aligned.
func tableJSON(name string, t *stats.Table, wallMS float64) figureJSON {
	fj := figureJSON{
		Figure:  name,
		Title:   t.Title,
		Headers: t.Headers,
		Rows:    t.Rows(),
		Series:  []seriesJSON{},
		WallMS:  wallMS,
	}
	if len(t.Headers) < 2 {
		return fj
	}
	for col := 1; col < len(t.Headers); col++ {
		s := seriesJSON{Name: t.Headers[col], X: []float64{}, Y: []float64{}}
		for r, row := range t.Rows() {
			if col >= len(row) {
				continue
			}
			x, errX := cellValue(t, r, 0)
			y, errY := cellValue(t, r, col)
			if errX != nil || errY != nil {
				continue
			}
			s.X = append(s.X, x)
			s.Y = append(s.Y, y)
		}
		if len(s.Y) > 0 {
			fj.Series = append(fj.Series, s)
		}
	}
	return fj
}

// cellValue reads cell (r, c) of t as a number: a float cell's value, or
// any other cell's rendering parsed ("12.5" and "3e-2" are numbers, "q50"
// is not).
func cellValue(t *stats.Table, r, c int) (float64, error) {
	switch v := t.Values()[r][c].(type) {
	case float64:
		return v, nil
	case float32:
		return float64(v), nil
	}
	return strconv.ParseFloat(strings.TrimSpace(t.Rows()[r][c]), 64)
}
