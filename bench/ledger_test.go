package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}

	// p99 appears only with ten samples beyond it; p50 and p95 always, with
	// the count beside them.
	for _, n := range []int{minSamplesP99 - 1, minSamplesP99} {
		r := newResult(workload{name: "t"})
		r.timing("", "query", make([]float64, n))
		_, hasP99 := r.metrics["bench.query_p99_ms"]
		if want := n >= minSamplesP99; hasP99 != want {
			t.Errorf("%d samples: p99 reported = %v, want %v", n, hasP99, want)
		}
		if r.samples["query_p95_ms"] != n || r.samples["query_p50_ms"] != n {
			t.Errorf("%d samples: counts %v", n, r.samples)
		}
	}
}

// The driver computes spread with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 9, 3, 8, 4, 7, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3.1, 2.9, 3.4, 3.0, 3.3], n=4) == [2.95, 3.1, 3.35]
	q1, q2, q3 = quartiles([]float64{3.1, 2.9, 3.4, 3.0, 3.3})
	for i, d := range []float64{q1 - 2.95, q2 - 3.1, q3 - 3.35} {
		if math.Abs(d) > 1e-12 {
			t.Errorf("quartile %d off by %v", i+1, d)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("relSpread(1..10) = %v, want 1", got)
	}
}

func drain(s *opSource, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestOpsAreSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := drain(newOpSource(w, 32, 7), 500)
		b := drain(newOpSource(w, 32, 7), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different operations", w.name)
		}
		c := drain(newOpSource(w, 32, 8), 500)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same operations", w.name)
		}
	}
}

func TestEnginePassAsksEveryQueryEqually(t *testing.T) {
	w, _ := workloadByName("engine-verify")
	counts := map[int][numOpKinds]int{}
	for _, o := range drain(newOpSource(w, 32, 3), 2*4*32) {
		c := counts[o.queries[0]]
		c[o.kind]++
		counts[o.queries[0]] = c
	}
	for q := 0; q < 32; q++ {
		if c := counts[q]; c[opQuery] != 6 || c[opTopK] != 2 {
			t.Errorf("query %d asked %d times as query, %d as top-k; want 6 and 2", q, c[opQuery], c[opTopK])
		}
	}
}

func TestServeMixAndPopularity(t *testing.T) {
	w, _ := workloadByName("serve-churn")
	src := newOpSource(w, 32, 5)
	ops := src.schedule(100, 50*time.Second)
	if len(ops) != 5000 {
		t.Fatalf("schedule has %d operations, want 5000", len(ops))
	}
	var kinds [numOpKinds]int
	keys := map[string]int{}
	for i, o := range ops {
		if want := time.Duration(i) * 10 * time.Millisecond; o.due != want {
			t.Fatalf("operation %d due at %v, want %v", i, o.due, want)
		}
		kinds[o.kind]++
		if o.kind == opQuery {
			keys[o.key()]++
		}
	}
	writes := kinds[opAdd] + kinds[opRemove] + kinds[opReplace]
	if share := float64(writes) / float64(len(ops)); math.Abs(share-w.mutateShare) > 0.03 {
		t.Errorf("write share %.3f, want about %.2f", share, w.mutateShare)
	}
	if kinds[opReplace] != writes/10 {
		t.Errorf("%d replaces among %d writes, want every tenth", kinds[opReplace], writes)
	}
	reads := float64(len(ops) - writes)
	for kind, want := range map[opKind]float64{opQuery: 0.7, opTopK: 0.2, opBatch: 0.1} {
		if share := float64(kinds[kind]) / reads; math.Abs(share-want) > 0.03 {
			t.Errorf("%v share of reads %.3f, want about %.1f", kind, share, want)
		}
	}
	if len(keys) > 32*w.seedsPerQuery {
		t.Errorf("%d distinct query keys, want at most %d", len(keys), 32*w.seedsPerQuery)
	}
	// Popularity is skewed: the most popular key is the head of headKeys
	// and takes far more than a uniform share.
	head := src.headKeys(1)[0]
	if got := keys[head.key()]; float64(got) < 5*float64(kinds[opQuery])/float64(32*w.seedsPerQuery) {
		t.Errorf("most popular key asked %d times of %d", got, kinds[opQuery])
	}
}

// A stalled caller must be charged to every operation it delays: latency
// runs from the due time, not from the moment the operation was sent.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	ops := []op{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	samples := openLoop(ops, 1, func(op) sample {
		time.Sleep(stall)
		return sample{}
	})
	for i, s := range samples {
		// Sent when the previous ones are done: i×stall after the start.
		wantLate := float64(time.Duration(i)*stall-ops[i].due) / 1e6
		want := wantLate + float64(stall)/1e6
		if s.ms < want || s.ms > want+40 {
			t.Errorf("operation %d: latency %.1f ms, want %.1f ms measured from its due time", i, s.ms, want)
		}
		if s.lateMS < wantLate || s.lateMS > wantLate+40 {
			t.Errorf("operation %d: sent %.1f ms late, want %.1f ms", i, s.lateMS, wantLate)
		}
	}
	// With a caller per operation nothing queues.
	for i, s := range openLoop(ops, 3, func(op) sample { time.Sleep(stall); return sample{} }) {
		if s.lateMS > 30 {
			t.Errorf("operation %d: %.1f ms late with an idle caller available", i, s.lateMS)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	parent := r.add("verify.ssp", 0, 1, 0, 1000)
	r.add("iso.edgesets", parent, 1, 1000, 1200)
	r.add("verify.smp", parent, 1, 1200, 1900)
	self := r.selfMS()
	if got := self["verify.ssp"]; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("self time of verify.ssp = %v ms, want 0.1", got)
	}
	if got := r.perOp("iso.edgesets"); len(got) != 1 || math.Abs(got[0]-0.2) > 1e-9 {
		t.Errorf("perOp(iso.edgesets) = %v, want [0.2]", got)
	}
}

// BENCHMARK.json must name only what the program measures, with the units
// the names imply, and every workload the program has.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := map[string]bool{}
	for _, name := range endToEndNames {
		endToEnd[name] = true
	}
	perLayer := map[string]bool{}
	for _, name := range perLayerNames {
		perLayer[name] = true
	}
	for _, m := range bf.EndToEnd {
		if !endToEnd[m.Name] {
			t.Errorf("end_to_end lists %q, which no untraced run reports on every workload", m.Name)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound {
			t.Errorf("end_to_end %q: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
	}
	for _, m := range bf.PerLayer {
		if !perLayer[m.Name] {
			t.Errorf("per_layer lists %q, which the traced run does not report", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec{}, bf.EndToEnd...), bf.PerLayer...) {
		if m.Unit != unitOf(m.Name) {
			t.Errorf("%q: unit %q, but the name implies %q", m.Name, m.Unit, unitOf(m.Name))
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}

// valuesOf recovers the per-seed values a calibration was derived from.
func valuesOf(cal calibration) map[string]map[string][]float64 {
	values := map[string]map[string][]float64{}
	for workload, stats := range cal.Stats {
		values[workload] = map[string][]float64{}
		for name, st := range stats {
			values[workload][name] = st.Values
		}
	}
	return values
}

// The bounds in BENCHMARK.json are the ones the checked-in calibration's raw
// values give under the rule in calibrate.go, and nothing it demotes is listed
// as end-to-end.
func TestBoundsFollowCalibration(t *testing.T) {
	raw, err := os.ReadFile("results/calibration.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded calibration
	if err := json.Unmarshal(raw, &recorded); err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	derived := calibration{}
	derived.derive(valuesOf(recorded), endToEndNames)
	for _, m := range bf.EndToEnd {
		want, ok := derived.Bounds[m.Name]
		if !ok {
			t.Errorf("%s is end-to-end, but the calibration demotes it", m.Name)
		} else if m.Bound == nil || *m.Bound != want {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v from the calibration", m.Name, m.Bound, want)
		}
		if recorded.Bounds[m.Name] != want {
			t.Errorf("%s: calibration.json records bound %v, its values give %v", m.Name, recorded.Bounds[m.Name], want)
		}
	}
}
