package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setUpRounds is how often a run sets up from scratch; setup_s is the median.
const setUpRounds = 3

// gateKeys and mirrorKeys are how many of the most popular keys the
// determinism gate and the post-run mirror comparison cover.
const (
	gateKeys   = 32
	mirrorKeys = 8
)

// endToEndNames lists what every workload reports from an untraced run —
// the candidates for BENCHMARK.json's end_to_end list. Timings that only some
// workloads have (batch, mutate) are reported beside them but cannot be listed.
var endToEndNames = []string{
	"setup_s", "query_p50_ms", "query_p95_ms", "topk_p50_ms", "topk_p95_ms", "throughput_ops_s", "mem_peak_mb",
}

// result collects what one run of one workload measured and checked.
type result struct {
	workload  string
	metrics   map[string]float64
	samples   map[string]int // timing metric → samples behind it
	attempted int
	failed    int
	problems  []string // the first few violations, for the log
}

func newResult(w workload) *result {
	return &result{workload: w.name, metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// set records a value with the number of samples behind it.
func (r *result) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

// timing records the median of xs as <prefix><name>_p50_ms and its 95th
// percentile as …_p95_ms; p99 only with the ten samples beyond it that the
// percentile rule asks for. p95 is recorded whatever the count — every run
// must report it — and print flags it when the count falls short.
func (r *result) timing(prefix, name string, xs []float64) {
	s := sortedCopy(xs)
	r.set(prefix+name+"_p50_ms", percentile(s, 50), len(s))
	r.set(prefix+name+"_p95_ms", percentile(s, 95), len(s))
	if len(s) >= minSamplesP99 {
		r.set("bench."+name+"_p99_ms", percentile(s, 99), len(s))
	}
}

// latencies records the per-operation-type timings of samples under prefix
// ("" for end-to-end metrics, "bench." for the traced run's diagnostics).
func (r *result) latencies(prefix string, samples []sample) {
	by := map[string][]float64{}
	for _, s := range samples {
		if s.failed {
			continue
		}
		name := s.kind.String()
		if s.kind.mutation() {
			name = "mutate"
		}
		by[name] = append(by[name], s.ms)
	}
	for _, name := range []string{"query", "topk", "batch", "mutate"} {
		r.timing(prefix, name, by[name])
	}
}

// run measures one workload once: end-to-end metrics when trace is false,
// per-layer metrics from the traced replay when it is true.
func run(ctx context.Context, w workload, seed int64, d time.Duration, trace bool, p paths) (*result, error) {
	c, err := newCorpus(w)
	if err != nil {
		return nil, err
	}
	res := newResult(w)
	src := newOpSource(w, len(c.queries), seed)
	if trace {
		err = runTraced(ctx, w, c, src, d, p, res)
	} else if w.serve() {
		err = runServe(ctx, w, c, src, d, p, res)
	} else {
		err = runEngine(ctx, w, c, src, d, res)
	}
	return res, err
}

func runEngine(ctx context.Context, w workload, c *corpus, src *opSource, d time.Duration, res *result) error {
	var env *engineEnv
	var setUps []float64
	for i := 0; i < setUpRounds; i++ {
		env = nil
		runtime.GC() // the previous round's database is garbage, not part of the peak
		t := time.Now()
		var err error
		if env, err = engineSetUp(ctx, w, c, src); err != nil {
			return err
		}
		setUps = append(setUps, time.Since(t).Seconds())
	}
	res.set("setup_s", median(setUps), len(setUps))

	resetPeak(os.Getpid())
	start := time.Now()
	samples := closedLoop(src, 1, d, func(o op) sample { return env.exec(ctx, w, c, o, res) })
	res.set("throughput_ops_s", float64(len(samples))/time.Since(start).Seconds(), len(samples))
	res.latencies("", samples)
	res.set("mem_peak_mb", peakMB(os.Getpid()), 1)
	return nil
}

func runServe(ctx context.Context, w workload, c *corpus, src *opSource, d time.Duration, p paths, res *result) error {
	var env *serveEnv
	var setUps []float64
	for i := 0; i < setUpRounds; i++ {
		if env != nil {
			env.stop()
		}
		t := time.Now()
		var err error
		if env, err = serveSetUp(ctx, w, c, src, p, fmt.Sprint("r", i)); err != nil {
			return err
		}
		setUps = append(setUps, time.Since(t).Seconds())
	}
	defer env.stop()
	res.set("setup_s", median(setUps), len(setUps))

	ls, err := newLoadState(ctx, w, c, env, res)
	if err != nil {
		return err
	}
	gate(ctx, w, c, env, src.headKeys(gateKeys), res)
	env.fleet.resetPeak()

	// A closed loop of nproc callers for the whole run gives both the
	// latencies and the throughput. A fixed-rate open loop gave the run
	// length a third of the samples, and top-k medians and throughput that
	// moved 20 % from seed to seed on sampling noise alone; it lives on in
	// the traced run, which reports latency from the due time and how late
	// the generator ran (bench.*).
	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	samples := closedLoop(src, workers, d, func(o op) sample { return ls.exec(ctx, o) })
	res.set("throughput_ops_s", float64(len(samples))/time.Since(start).Seconds(), len(samples))
	res.latencies("", samples)
	if w.mutateShare > 0 {
		ls.checkMirror(ctx, src.headKeys(mirrorKeys))
	}
	res.set("mem_peak_mb", env.fleet.peakMB(), len(env.fleet.servers))
	return nil
}

// print writes every metric with its unit and sample count, sorted by name.
func (r *result) print() {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := r.samples[name]
		note := ""
		if strings.HasSuffix(name, "_p95_ms") && n > 0 && n < minSamplesP95 {
			note = fmt.Sprintf("  (fewer than %d samples: not a trustworthy p95)", minSamplesP95)
		}
		fmt.Printf("%-16s %-34s %14.4f %-6s n=%d%s\n", r.workload, name, r.metrics[name], unitOf(name), n, note)
	}
	for _, p := range r.problems {
		fmt.Printf("%-16s VIOLATION %s\n", r.workload, p)
	}
	fmt.Printf("%-16s attempted=%d failed=%d error_rate=%.6f\n", r.workload, r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
}
