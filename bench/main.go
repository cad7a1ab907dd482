// Command pgledger is the repository's performance ledger: four workloads,
// end-to-end metrics from untraced runs and per-layer metrics from a traced
// replay of the same operations. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md in this directory explains them.
//
// Run it through run.sh, which builds it and the servers it drives:
//
//	bash bench/run.sh                                   every workload, untraced then traced
//	bash bench/run.sh --workload serve-fleet --seed 3 --seconds 12 --trace 0
//	bash bench/run.sh -check                            paper-shape assertions, a few seconds
//	bash bench/run.sh -calibrate 10                     spreads and bounds over ten seeds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricSpec and benchmarkFile mirror BENCHMARK.json, which is the one place
// that says which metrics are end-to-end and which per-layer, with units.
type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// unitOf derives a metric's unit from its name's suffix, the convention
// every metric name follows.
func unitOf(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"ops_s", "1/s"}, {"_s", "s"}, {"_mb", "MB"},
		{"_pct", "%"}, {"_ratio", "ratio"}, {"_skew", "ratio"}, {"_coverage", "ratio"},
		{"_abs_err_max", "prob"}, {"bytes_per_graph", "B"}, {"_bytes", "B"},
	} {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}

// resultLine is the last line of a driver run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line selects the metrics BENCHMARK.json lists for this kind of run.
func (r *result) line(specs []metricSpec) (resultLine, error) {
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := r.metrics[m.Name]
		if !ok {
			return out, fmt.Errorf("BENCHMARK.json lists %q, which %s does not measure", m.Name, r.workload)
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return out, nil
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	root := flag.String("root", "..", "repository root (run.sh passes it)")
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "drives operation order, key popularity, schedule, mutation order and every QueryOptions.Seed")
	seconds := flag.Int("seconds", 0, "measured seconds per run (0 = run_seconds from BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics from an untraced run, 1 = per-layer metrics from the traced replay")
	check := flag.Bool("check", false, "run the paper-shape assertions and exit")
	calibrate := flag.Int("calibrate", 0, "run every workload on N seeds from -seed up, report spreads, write bounds into BENCHMARK.json")
	flag.Parse()

	fatal := func(err error) int {
		fmt.Fprintln(os.Stderr, "pgledger:", err)
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		return fatal(err)
	}
	bf, err := readBenchmarkFile(abs)
	if err != nil {
		return fatal(err)
	}
	if *seconds == 0 {
		*seconds = bf.RunSeconds
	}
	d := time.Duration(*seconds) * time.Second
	p := paths{
		bin:     filepath.Join(abs, "bench", ".build", "bin"),
		work:    filepath.Join(abs, "bench", ".build", fmt.Sprint("run-", os.Getpid())),
		results: filepath.Join(abs, "bench", "results"),
	}
	for _, dir := range []string{p.work, p.results} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fatal(err)
		}
	}
	defer os.RemoveAll(p.work)
	defer killAll()
	killOnSignal()
	ctx := context.Background()

	switch {
	case *check:
		ok, err := runCheck(ctx)
		if err != nil {
			return fatal(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *calibrate > 0:
		if err := runCalibrate(ctx, abs, bf, *seed, *calibrate, d, p); err != nil {
			return fatal(err)
		}
		return 0
	case *name == "all":
		ok := true
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := run(ctx, w, *seed, d, traced, p)
				if err != nil {
					return fatal(fmt.Errorf("%s: %w", w.name, err))
				}
				res.print()
				ok = ok && res.correct()
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	w, found := workloadByName(*name)
	if !found {
		return fatal(fmt.Errorf("unknown workload %q", *name))
	}
	res, err := run(ctx, w, *seed, d, *trace == 1, p)
	if err != nil {
		return fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	res.print()
	specs := bf.EndToEnd
	if *trace == 1 {
		specs = bf.PerLayer
	}
	line, err := res.line(specs)
	if err != nil {
		return fatal(err)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}
