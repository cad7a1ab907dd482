package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/cuts"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/mwclique"
	"probgraph/internal/obs"
	"probgraph/internal/prob"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

// exactClauseCap bounds the DNF size verify.Exact is asked to expand (2^n
// inclusion–exclusion terms); pairs with more clauses are left out of the
// SMP-versus-exact comparison.
const exactClauseCap = 16

// kernelPairs is how many fixed (pattern, graph) pairs each kernel replays.
const kernelPairs = 32

// perLayerNames lists every metric a traced run reports. A layer the
// workload does not exercise reports 0 with n=0.
var perLayerNames = []string{
	// index construction and its kernels → setup_s everywhere
	"feature.mine_s", "pmi.build_s", "simsearch.build_s", "feature.features",
	"cuts.minimal_cuts_ms", "mwclique.solve_ms", "prob.new_engine_ms",
	// snapshot codec and process start → setup_s on serve-*
	"core.save_binary_ms", "core.open_binary_ms", "core.save_text_ms", "core.open_text_ms",
	"core.snapshot_bytes_per_graph", "pgserve.ready_ms",
	// structural filter and relaxation → query/topk on engine-filter, miss tail on serve-*
	"simsearch.scq_ms", "simsearch.candidates_ms", "simsearch.confirm_ms",
	"simsearch.filter_candidates", "simsearch.confirmed",
	"relax.relaxed_ms", "relax.relaxed_count", "iso.exists_us",
	// probabilistic pruning → how much reaches verification
	"core.prune_ms", "core.pruned_by_upper", "core.accepted_by_lower", "core.verify_candidates",
	"core.answers", "core.prune_ratio", "pmi.lookup_us",
	// verification → query/topk/throughput on engine-verify
	"verify.ssp_ms", "verify.total_ms", "iso.edgesets_ms", "verify.smp_ms",
	"prob.sample_world_us", "verify.exact_ms", "verify.smp_abs_err_max",
	// top-k's two phases → topk on engine-* and serve-fleet
	"core.topk_bounds_ms", "core.topk_verify_ms", "core.topk_verified",
	// server → query p50 (a hit) and throughput on serve-*
	"server.hit_ms", "server.miss_ms", "server.overhead_ms", "server.cache_hit_ratio",
	"server.response_bytes",
	// coordinator → serve-fleet only
	"cluster.query_tax_ms", "cluster.topk_tax_ms", "cluster.shard_skew",
	// writes → serve-churn only
	"server.add_ms", "server.remove_ms", "server.replace_ms", "server.post_mutation_query_ms",
	"core.add_graph_ms", "pmi.with_column_ms", "simsearch.with_graph_ms", "core.compact_ms",
	// the measurement itself
	"obs.trace_overhead_pct", "bench.trace_coverage", "bench.verify_time_ratio", "bench.scq_time_ratio",
	"bench.late_p95_ms", "bench.samples.traced_ops", "bench.samples.exact_pairs",
	"bench.query_p50_ms", "bench.query_p95_ms", "bench.topk_p50_ms", "bench.topk_p95_ms",
	"bench.batch_p50_ms", "bench.batch_p95_ms", "bench.mutate_p50_ms", "bench.mutate_p95_ms",
	"bench.mem_peak_mb",
}

// runTraced sets up once and then replays the run's operations layer by
// layer, each call into a layer's public surface wrapped in a span.
func runTraced(ctx context.Context, w workload, c *corpus, src *opSource, d time.Duration, p paths, res *result) error {
	rec := newRecorder()
	var db *core.Database
	var env *serveEnv
	if w.serve() {
		var err error
		if env, err = serveSetUp(ctx, w, c, src, p, "traced"); err != nil {
			return err
		}
		defer env.stop()
		db = env.db
		res.set("pgserve.ready_ms", env.fleet.readyMS(), len(env.fleet.servers))
	} else {
		e, err := engineSetUp(ctx, w, c, src)
		if err != nil {
			return err
		}
		db = e.db
	}
	b := db.Build()
	res.set("feature.mine_s", b.FeatureTime.Seconds(), 1)
	res.set("pmi.build_s", b.PMITime.Seconds(), 1)
	res.set("simsearch.build_s", b.StructTime.Seconds(), 1)
	res.set("feature.features", float64(b.Features), 1)

	kernelLayers(c, db.View(), res)
	if err := codecLayers(db, p, res); err != nil {
		return err
	}
	accuracyLayers(w, c, db.View(), res)

	if w.serve() {
		env.fleet.resetPeak()
	} else {
		resetPeak(os.Getpid())
	}
	samples, err := engineLayers(ctx, w, c, db.View(), src.keySeed(0), rec, res)
	if err != nil {
		return err
	}
	if w.serve() {
		if samples, err = serverLayers(ctx, w, c, env, src, d/3, rec, res); err != nil {
			return err
		}
		res.set("bench.mem_peak_mb", env.fleet.peakMB(), len(env.fleet.servers))
	} else {
		res.set("bench.mem_peak_mb", peakMB(os.Getpid()), 1)
	}
	res.latencies("bench.", samples)
	if w.mutateShare > 0 {
		if err := mutationLayers(c, db, p, res); err != nil {
			return err
		}
	}
	for _, name := range perLayerNames {
		if _, ok := res.metrics[name]; !ok {
			res.set(name, 0, 0)
		}
	}
	return rec.write(filepath.Join(p.results, w.name+".trace.json"), map[string]any{
		"workload": w.name, "seed": src.seed,
		"note": "children of a call into the program are replayed right after it returns; see README.md",
	})
}

// timeMS runs fn and returns how long it took.
func timeMS(fn func()) float64 {
	t := time.Now()
	fn()
	return msSince(t)
}

// kernelLayers replays the index-construction and sampling kernels on fixed
// inputs drawn from the built database.
func kernelLayers(c *corpus, v *core.View, res *result) {
	feats := v.Features
	var cutMS, cliqueMS, engineMS []float64
	for i := 0; i < kernelPairs && len(feats) > 0; i++ {
		f := feats[i*len(feats)/kernelPairs]
		if len(f.Support) == 0 {
			continue
		}
		gc := v.Certain[f.Support[i%len(f.Support)]]
		embs := iso.EdgeSets(f.G, gc, nil, 24)
		cutMS = append(cutMS, timeMS(func() { cuts.MinimalCuts(embs, gc.NumEdges(), 24) }))
		// The disjointness graph OPT-SIPBound solves for its tightest family.
		g := mwclique.NewGraph(len(embs))
		for a := range embs {
			g.Weight[a] = 1 + float64(a%3)
			for b := a + 1; b < len(embs); b++ {
				if !embs[a].Intersects(embs[b]) {
					g.AddEdge(a, b)
				}
			}
		}
		cliqueMS = append(cliqueMS, timeMS(func() { mwclique.Solve(g) }))
	}
	res.set("cuts.minimal_cuts_ms", median(cutMS), len(cutMS))
	res.set("mwclique.solve_ms", median(cliqueMS), len(cliqueMS))

	for i := 0; i < kernelPairs; i++ {
		pg := v.Graphs[i*len(v.Graphs)/kernelPairs]
		engineMS = append(engineMS, timeMS(func() { _, _ = prob.NewEngine(pg) })) // built before: cannot fail
	}
	res.set("prob.new_engine_ms", median(engineMS), len(engineMS))

	// The three below are too short to time one call at a time; each
	// reports the mean over a loop.
	const draws = 200
	rng := rand.New(rand.NewSource(corpusSeed))
	n := 0
	sampleMS := timeMS(func() {
		for i := 0; i < kernelPairs/2; i++ {
			gi := i * v.Len() / (kernelPairs / 2)
			eng, err := v.Engine(gi)
			if err != nil {
				continue
			}
			world := v.Graphs[gi].NewWorld()
			scratch := make([]bool, eng.NumUncertain())
			for j := 0; j < draws; j++ {
				eng.SampleWorldInto(rng, world, scratch)
				n++
			}
		}
	})
	res.set("prob.sample_world_us", 1000*sampleMS/float64(max(n, 1)), n)

	if v.PMI != nil {
		buf := v.PMI.LookupInto(0, nil)
		const rounds = 100
		lookupMS := timeMS(func() {
			for r := 0; r < rounds; r++ {
				for gi := 0; gi < v.Len(); gi++ {
					buf = v.PMI.LookupInto(gi, buf)
				}
			}
		})
		res.set("pmi.lookup_us", 1000*lookupMS/float64(rounds*v.Len()), rounds*v.Len())
	}

	n = 0
	existsMS := timeMS(func() {
		for _, q := range c.queries[:min(8, len(c.queries))] {
			u := relax.Relaxed(q.g, q.delta, 0)
			for _, rq := range u[:min(8, len(u))] {
				for gi := 0; gi < min(16, v.Len()); gi++ {
					iso.Exists(rq, v.Certain[gi], nil)
					n++
				}
			}
		}
	})
	res.set("iso.exists_us", 1000*existsMS/float64(max(n, 1)), n)
}

// codecLayers times the snapshot codecs on the built database.
func codecLayers(db *core.Database, p paths, res *result) error {
	const rounds = 3
	for _, f := range []struct {
		format core.SnapshotFormat
		name   string
	}{{core.SnapshotBinary, "binary"}, {core.SnapshotText, "text"}} {
		file := filepath.Join(p.work, "codec."+f.name)
		var saveMS, openMS []float64
		for i := 0; i < rounds; i++ {
			var err error
			saveMS = append(saveMS, timeMS(func() { err = db.SaveFile(file, f.format) }))
			if err != nil {
				return err
			}
			openMS = append(openMS, timeMS(func() { _, err = core.OpenSnapshot(file) }))
			if err != nil {
				return err
			}
		}
		res.set("core.save_"+f.name+"_ms", median(saveMS), rounds)
		res.set("core.open_"+f.name+"_ms", median(openMS), rounds)
		if f.format == core.SnapshotBinary {
			st, err := os.Stat(file)
			if err != nil {
				return err
			}
			res.set("core.snapshot_bytes_per_graph", float64(st.Size())/float64(db.Len()), 1)
		}
	}
	return nil
}

// clausesOf gathers the DNF that verification evaluates for (u, gi), the
// way core's VerifySSP does.
func clausesOf(v *core.View, u []*graph.Graph, gi int) []graph.EdgeSet {
	var clauses []graph.EdgeSet
	for _, rq := range u {
		clauses = append(clauses, iso.EdgeSets(rq, v.Certain[gi], nil, 64)...)
	}
	return verify.DedupClauses(clauses)
}

// accuracyLayers compares the SMP estimate with the exact inclusion–
// exclusion value on one structurally confirmed graph per pool query.
func accuracyLayers(w workload, c *corpus, v *core.View, res *result) {
	var exactMS []float64
	worst := 0.0
	for qi, q := range c.queries {
		scq, _ := v.Struct.SCq(q.g, q.delta, 1)
		if len(scq) == 0 {
			continue
		}
		gi := scq[qi%len(scq)]
		clauses := clausesOf(v, relax.Relaxed(q.g, q.delta, 0), gi)
		eng, err := v.Engine(gi)
		if err != nil || len(clauses) == 0 || len(clauses) > exactClauseCap {
			continue
		}
		var exact, smp float64
		exactMS = append(exactMS, timeMS(func() { exact, err = verify.Exact(eng, clauses, exactClauseCap) }))
		if err != nil {
			res.fail("verify.Exact on query %d graph %d: %v", qi, gi, err)
			continue
		}
		vo := w.queryOptions(q, int64(qi)+1, 1).Verify
		vo.Seed = int64(qi) + 1
		smp, err = verify.SMP(eng, clauses, vo)
		if err != nil {
			res.fail("verify.SMP on query %d graph %d: %v", qi, gi, err)
			continue
		}
		worst = max(worst, math.Abs(smp-exact))
	}
	res.set("verify.exact_ms", median(exactMS), len(exactMS))
	res.set("verify.smp_abs_err_max", worst, len(exactMS))
	res.set("bench.samples.exact_pairs", float64(len(exactMS)), len(exactMS))
}

// engineLayers replays, in-process, every pool query once as a threshold
// query and every fourth also as a top-k query — a fixed list, not a
// duration, so that the count metrics repeat exactly for a given seed and the
// time shares are those of the whole pool. Each operation is run untraced,
// run again under the program's own obs trace, and then taken apart: one call
// per layer, in pipeline order, each in a span. The parts must reassemble to
// the untraced answer bitwise.
func engineLayers(ctx context.Context, w workload, c *corpus, v *core.View, seed int64, rec *recorder, res *result) ([]sample, error) {
	var samples []sample
	var plainMS, layerMS, overhead, verifyTotals []float64
	var queryMS float64
	counts := map[string]float64{}
	queries, topks := 0, 0
	var ops []op
	for qi := range c.queries {
		ops = append(ops, op{kind: opQuery, queries: []int{qi}, seed: seed})
		if qi%4 == 0 {
			ops = append(ops, op{kind: opTopK, queries: []int{qi}, seed: seed})
		}
	}
	for i, o := range ops {
		opID := i + 1
		q := c.queries[o.queries[0]]
		opt := w.queryOptions(q, o.seed, 1)
		res.attempted++

		// Untraced and obs-traced, in alternating order.
		var plain answer
		var stats core.Stats
		call := func(ctx context.Context) (float64, error) {
			t := time.Now()
			if o.kind == opTopK {
				items, err := v.QueryTopKCtx(ctx, q.g, topK, opt)
				plain = topkItemsAnswer(items)
				return msSince(t), err
			}
			r, err := v.QueryCtx(ctx, q.g, opt)
			if err != nil {
				return 0, err
			}
			plain, stats = queryAnswer(r.Answers, r.SSP), r.Stats
			return msSince(t), nil
		}
		traced := func() (float64, error) {
			root := obs.NewTrace().Root("bench")
			defer root.End()
			return call(obs.ContextWithSpan(ctx, root))
		}
		var ms, obsMS float64
		var err error
		if opID%2 == 0 {
			if ms, err = call(ctx); err == nil {
				obsMS, err = traced()
			}
		} else {
			if obsMS, err = traced(); err == nil {
				ms, err = call(ctx)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.key(), err)
		}
		samples = append(samples, sample{kind: o.kind, ms: ms})
		plainMS = append(plainMS, ms)
		overhead = append(overhead, obsMS/ms)

		var parts answer
		var sum float64
		if o.kind == opTopK {
			parts, sum, err = topkByLayer(ctx, v, q, opt, rec, opID, counts)
			topks++
		} else {
			parts, sum, err = queryByLayer(ctx, v, q, opt, rec, opID, counts)
			queries++
			queryMS += ms
			verifyTotals = append(verifyTotals, float64(stats.TimeVerify.Nanoseconds())/1e6)
			counts["core.pruned_by_upper"] += float64(stats.PrunedByUpper)
			counts["core.accepted_by_lower"] += float64(stats.AcceptedByLower)
			counts["core.verify_candidates"] += float64(stats.VerifyCandidates)
			counts["core.answers"] += float64(stats.Answers)
		}
		if err != nil {
			return nil, fmt.Errorf("%s by layer: %w", o.key(), err)
		}
		if parts != plain {
			res.fail("%s: the layer-by-layer answer differs from the one-call answer", o.key())
		}
		layerMS = append(layerMS, sum)
	}

	for _, name := range []string{"simsearch.filter_candidates", "simsearch.confirmed", "relax.relaxed_count",
		"core.pruned_by_upper", "core.accepted_by_lower", "core.verify_candidates", "core.answers"} {
		res.set(name, counts[name]/float64(max(queries, 1)), queries)
	}
	res.set("core.topk_verified", counts["core.topk_verified"]/float64(max(topks, 1)), topks)
	if confirmed := counts["simsearch.confirmed"]; confirmed > 0 {
		res.set("core.prune_ratio", (counts["core.pruned_by_upper"]+counts["core.accepted_by_lower"])/confirmed, queries)
	}
	res.set("verify.total_ms", median(verifyTotals), len(verifyTotals))
	for _, l := range []string{"simsearch.scq", "simsearch.candidates", "simsearch.confirm", "relax.relaxed",
		"core.prune", "core.topk_bounds", "core.topk_verify"} {
		xs := rec.perOp(l)
		res.set(l+"_ms", median(xs), len(xs))
	}
	for _, l := range []string{"verify.ssp", "iso.edgesets", "verify.smp"} {
		xs := rec.perCall(l)
		res.set(l+"_ms", median(xs), len(xs))
	}
	res.set("bench.verify_time_ratio", sumOf(verifyTotals)/math.Max(queryMS, 1e-9), queries)
	res.set("bench.scq_time_ratio", sumOf(rec.perOp("simsearch.scq"))/math.Max(queryMS, 1e-9), queries)
	res.set("bench.trace_coverage", sumOf(layerMS)/math.Max(sumOf(plainMS), 1e-9), len(plainMS))
	res.set("obs.trace_overhead_pct", 100*(median(overhead)-1), len(overhead))
	res.set("bench.samples.traced_ops", float64(len(plainMS)), len(plainMS))
	return samples, nil
}

// queryByLayer answers a threshold query one public call per layer. It
// returns the reassembled answer and the summed duration of the layer spans.
func queryByLayer(ctx context.Context, v *core.View, q query, opt core.QueryOptions, rec *recorder, opID int, counts map[string]float64) (answer, float64, error) {
	var err error
	sum := 0.0
	layer := func(name string, fn func()) int {
		id := rec.time(name, 0, opID, fn)
		sum += rec.ms(id)
		return id
	}
	var scq []int
	var filtered int
	scqID := layer("simsearch.scq", func() { scq, filtered, err = v.Struct.SCqCtx(ctx, q.g, opt.Delta, 1) })
	if err != nil {
		return "", 0, err
	}
	var u []*graph.Graph
	layer("relax.relaxed", func() { u = relax.Relaxed(q.g, opt.Delta, opt.MaxRelaxed) })

	// Pruning has no public entry of its own: a run that stops before
	// verification reports its share as Stats.TimeProb, and says which
	// candidates it left undecided.
	none := opt
	none.Verifier = core.VerifierNone
	pruned, err := v.QueryCtx(ctx, q.g, none)
	if err != nil {
		return "", 0, err
	}
	end := rec.now()
	sum += rec.ms(rec.add("core.prune", 0, opID, end-float64(pruned.Stats.TimeProb.Nanoseconds())/1000, end))

	ssp := map[int]float64{}
	var answers, undecided []int
	for _, gi := range pruned.Answers {
		if p, accepted := pruned.SSP[gi]; accepted {
			ssp[gi] = p
			answers = append(answers, gi)
		} else {
			undecided = append(undecided, gi)
		}
	}
	sspIDs := make([]int, len(undecided))
	for i, gi := range undecided {
		var p float64
		sspIDs[i] = layer("verify.ssp", func() { p, err = v.VerifySSP(q.g, u, gi, opt) })
		if err != nil {
			return "", 0, err
		}
		ssp[gi] = p
		if p >= opt.Epsilon {
			answers = append(answers, gi)
		}
	}
	sort.Ints(answers)
	counts["simsearch.filter_candidates"] += float64(filtered)
	counts["simsearch.confirmed"] += float64(len(scq))
	counts["relax.relaxed_count"] += float64(len(u))

	// Children, replayed after their parents returned.
	var cand, confirmed []int
	rec.time("simsearch.candidates", scqID, opID, func() { cand, err = v.Struct.CandidatesCtx(ctx, q.g, opt.Delta, 1) })
	if err != nil {
		return "", 0, err
	}
	rec.time("simsearch.confirm", scqID, opID, func() {
		for _, gi := range cand {
			if v.Struct.Confirm(q.g, gi, opt.Delta) {
				confirmed = append(confirmed, gi)
			}
		}
	})
	if fmt.Sprint(confirmed) != fmt.Sprint(scq) || len(cand) != filtered {
		return "", 0, fmt.Errorf("candidates+confirm gave %v of %d, SCqCtx %v of %d", confirmed, len(cand), scq, filtered)
	}
	for i, gi := range undecided {
		var clauses []graph.EdgeSet
		rec.time("iso.edgesets", sspIDs[i], opID, func() { clauses = clausesOf(v, u, gi) })
		eng, err := v.Engine(gi)
		if err != nil {
			return "", 0, err
		}
		vo := opt.Verify
		vo.Seed = opt.Seed + int64(gi)
		rec.time("verify.smp", sspIDs[i], opID, func() { _, err = verify.SMP(eng, clauses, vo) })
		if err != nil {
			return "", 0, err
		}
	}
	return queryAnswer(answers, ssp), sum, nil
}

// topkByLayer answers a top-k query the way a coordinator does: the bound
// schedule from one call, then verification one candidate at a time under
// the serial early-termination rule.
func topkByLayer(ctx context.Context, v *core.View, q query, opt core.QueryOptions, rec *recorder, opID int, counts map[string]float64) (answer, float64, error) {
	var err error
	sum := 0.0
	layer := func(name string, fn func()) {
		sum += rec.ms(rec.time(name, 0, opID, fn))
	}
	var bounds []core.TopKBound
	layer("core.topk_bounds", func() { bounds, _, err = v.QueryTopKBounds(ctx, q.g, topK, opt) })
	if err != nil {
		return "", 0, err
	}
	var top []core.TopKItem
	for _, b := range bounds {
		if len(top) >= topK && b.Upper <= top[len(top)-1].SSP {
			break
		}
		var ssps []float64
		layer("core.topk_verify", func() { ssps, err = v.VerifySSPBatch(ctx, q.g, []int{b.Graph}, opt) })
		if err != nil {
			return "", 0, err
		}
		counts["core.topk_verified"]++
		if ssps[0] <= 0 {
			continue
		}
		item := core.TopKItem{Graph: b.Graph, SSP: ssps[0]}
		at := sort.Search(len(top), func(i int) bool {
			return top[i].SSP < item.SSP || top[i].SSP == item.SSP && top[i].Graph > item.Graph
		})
		top = append(top, core.TopKItem{})
		copy(top[at+1:], top[at:])
		top[at] = item
		if len(top) > topK {
			top = top[:topK]
		}
	}
	return topkItemsAnswer(top), sum, nil
}
