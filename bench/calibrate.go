package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// A metric's bound is three times the interquartile spread it showed over the
// calibration seeds, between minBound and maxBound, the largest bound
// BENCHMARK.json may carry. The acceptance driver requires the spread of ten
// runs to stay within the bound, and the interquartile range of ten values is
// itself only good to ±40 %, so a metric whose spread exceeds maxSpread is
// demoted rather than kept with a bound it would sometimes break — unless the
// machine explains the spread. setup_s does not depend on the seed, so its
// spread is the machine's own noise during the calibration (the shared
// two-core sandbox alternates, minutes at a time, between two speeds 25–30 %
// apart); a metric is blamed only for spread beyond hostNoiseFactor times it.
const (
	maxBound        = 0.25
	minBound        = 0.10
	maxSpread       = 0.6 * maxBound
	hostNoiseFactor = 1.5
)

// calibration is what -calibrate writes to results/calibration.json.
type calibration struct {
	Seeds      []int64                          `json:"seeds"`
	RunSeconds float64                          `json:"run_seconds"`
	Stats      map[string]map[string]metricStat `json:"stats"`      // workload → metric → stat
	HostNoise  map[string]float64               `json:"host_noise"` // workload → spread of setup_s
	Bounds     map[string]float64               `json:"bounds"`
	Demoted    []string                         `json:"demoted"`
}

type metricStat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 − q1) / median
	Values []float64 `json:"values"`
}

// derive fills Stats, HostNoise, Bounds and Demoted from the measured values
// (workload → metric → one value per seed) of the named end-to-end metrics.
func (cal *calibration) derive(values map[string]map[string][]float64, endToEnd []string) {
	cal.Stats = map[string]map[string]metricStat{}
	cal.HostNoise = map[string]float64{}
	cal.Bounds = map[string]float64{}
	cal.Demoted = []string{}
	worst := map[string]float64{}
	unexplained := map[string]bool{}
	for workload, metrics := range values {
		cal.Stats[workload] = map[string]metricStat{}
		cal.HostNoise[workload] = relSpread(metrics["setup_s"])
		for name, xs := range metrics {
			q1, _, q3 := quartiles(xs)
			st := metricStat{Median: median(xs), Q1: q1, Q3: q3, Spread: relSpread(xs), Values: xs}
			cal.Stats[workload][name] = st
			worst[name] = math.Max(worst[name], st.Spread)
			if st.Spread > maxSpread && st.Spread > hostNoiseFactor*cal.HostNoise[workload] {
				unexplained[name] = true
			}
		}
	}
	for _, name := range endToEnd {
		switch {
		case name == "setup_s":
			cal.Bounds[name] = maxBound // the largest bound, whatever its spread
		case unexplained[name]:
			cal.Demoted = append(cal.Demoted, name)
		default:
			cal.Bounds[name] = math.Min(maxBound, math.Max(minBound, math.Ceil(300*worst[name])/100))
		}
	}
}

// runCalibrate measures every workload untraced on n consecutive seeds,
// prints each metric's median, quartiles and spread, and rewrites the bounds
// in BENCHMARK.json — moving any end-to-end metric that does not repeat to
// the per-layer list under a bench. prefix.
func runCalibrate(ctx context.Context, root string, bf *benchmarkFile, seed int64, n int, d time.Duration, p paths) error {
	cal := calibration{RunSeconds: d.Seconds()}
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		cal.Seeds = append(cal.Seeds, seed+int64(i))
		for _, w := range workloads {
			res, err := run(ctx, w, seed+int64(i), d, false, p)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed+int64(i), err)
			}
			if !res.correct() {
				res.print()
				return fmt.Errorf("%s seed %d: incorrect outputs; not calibrating on them", w.name, seed+int64(i))
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, v := range res.metrics {
				values[w.name][name] = append(values[w.name][name], v)
			}
			fmt.Printf("calibrate: seed %d %s done\n", seed+int64(i), w.name)
		}
	}
	var names []string
	for _, m := range bf.EndToEnd {
		names = append(names, m.Name)
	}
	cal.derive(values, names)

	fmt.Printf("\n%-16s %-24s %12s %12s %12s %8s\n", "workload", "metric", "median", "q1", "q3", "spread")
	for _, w := range workloads {
		for _, name := range names {
			st := cal.Stats[w.name][name]
			fmt.Printf("%-16s %-24s %12.4f %12.4f %12.4f %7.1f%%\n", w.name, name, st.Median, st.Q1, st.Q3, 100*st.Spread)
		}
	}
	var kept []metricSpec
	for _, m := range bf.EndToEnd {
		if b, ok := cal.Bounds[m.Name]; ok {
			m.Bound = &b
			kept = append(kept, m)
			continue
		}
		fmt.Printf("demote %s: its spread exceeds %.0f%% and %.1f × the spread of setup_s\n", m.Name, 100*maxSpread, hostNoiseFactor)
		demoted := metricSpec{Name: "bench." + m.Name, Unit: m.Unit, Better: m.Better}
		listed := false
		for _, pl := range bf.PerLayer {
			listed = listed || pl.Name == demoted.Name
		}
		if !listed {
			bf.PerLayer = append(bf.PerLayer, demoted)
		}
	}
	bf.EndToEnd = kept

	if err := writeJSON(filepath.Join(p.results, "calibration.json"), cal); err != nil {
		return err
	}
	return writeJSON(filepath.Join(root, "BENCHMARK.json"), bf)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
