package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/prob"
)

// probeKeys is how many of the most popular keys are sent to every shard
// directly and then to the coordinator.
const probeKeys = 16

// serverLayers measures what the wire adds. First the run's schedule is
// replayed for d against the endpoint, which gives hit and miss latency, the
// hit ratio and the write timings under the real traffic mix. Then the most
// popular keys are sent, uncached, to each shard directly and to the
// endpoint, which separates server overhead, coordinator tax and shard skew.
func serverLayers(ctx context.Context, w workload, c *corpus, env *serveEnv, src *opSource, d time.Duration, rec *recorder, res *result) ([]sample, error) {
	ls, err := newLoadState(ctx, w, c, env, res)
	if err != nil {
		return nil, err
	}
	var opID atomic.Int64
	opID.Store(1 << 20) // clear of the in-process replay's op ids
	samples := openLoop(src.schedule(w.rateRPS, d), runtime.GOMAXPROCS(0), func(o op) sample {
		start := rec.now()
		s := ls.exec(ctx, o)
		rec.add("http."+s.kind.String(), 0, int(opID.Add(1)), start, rec.now())
		return s
	})
	by := map[string][]float64{}
	var late []float64
	hits, reads, bytes := 0, 0, 0
	for _, s := range samples {
		if s.failed {
			continue
		}
		late = append(late, s.lateMS)
		switch {
		case s.kind.mutation():
			by["server."+s.kind.String()+"_ms"] = append(by["server."+s.kind.String()+"_ms"], s.ms)
			continue
		case s.afterWrite:
			by["server.post_mutation_query_ms"] = append(by["server.post_mutation_query_ms"], s.ms)
		}
		if s.kind != opQuery {
			continue
		}
		reads++
		bytes += s.bytes
		if s.cached {
			hits++
			by["server.hit_ms"] = append(by["server.hit_ms"], s.ms)
		} else {
			by["server.miss_ms"] = append(by["server.miss_ms"], s.ms)
		}
	}
	for name, xs := range by {
		res.set(name, median(xs), len(xs))
	}
	res.set("bench.late_p95_ms", percentile(sortedCopy(late), 95), len(late))
	res.set("server.cache_hit_ratio", float64(hits)/float64(max(reads, 1)), reads)
	res.set("server.response_bytes", float64(bytes)/float64(max(reads, 1)), reads)

	var overhead, traceRatio, skew []float64
	tax := map[opKind][]float64{}
	for _, k := range src.headKeys(probeKeys) {
		for _, kind := range []opKind{opQuery, opTopK} {
			o := k
			o.kind = kind
			id := int(opID.Add(1))
			root := rec.now()
			call := func(name, url string, co callOpts) (float64, reply, error) {
				var rep reply
				var err error
				span := rec.time(name+"."+kind.String(), 0, id, func() { rep, err = env.cl.do(ctx, url, c, o, co) })
				res.attempted++
				if err != nil {
					res.fail("probe %s: %v", name, err)
				}
				return rec.ms(span), rep, err
			}
			slowest, fastest := 0.0, 0.0
			for i, srv := range env.fleet.servers {
				ms, rep, err := call(fmt.Sprint("pgserve", i), srv.url, callOpts{noCache: true})
				if err != nil {
					continue
				}
				overhead = append(overhead, ms-rep.serverMS)
				slowest = max(slowest, ms)
				if fastest == 0 || ms < fastest {
					fastest = ms
				}
			}
			plain, _, err := call("endpoint", env.fleet.endpoint, callOpts{noCache: true})
			if err != nil {
				continue
			}
			traced, _, err := call("endpoint-traced", env.fleet.endpoint, callOpts{noCache: true, trace: true})
			if err == nil {
				traceRatio = append(traceRatio, traced/plain)
			}
			if env.fleet.proxy != nil && fastest > 0 {
				tax[kind] = append(tax[kind], plain-slowest)
				skew = append(skew, slowest/fastest)
			}
			rec.add("probe."+kind.String(), 0, id, root, rec.now())
		}
	}
	res.set("server.overhead_ms", median(overhead), len(overhead))
	res.set("obs.trace_overhead_pct", 100*(median(traceRatio)-1), len(traceRatio))
	res.set("cluster.query_tax_ms", median(tax[opQuery]), len(tax[opQuery]))
	res.set("cluster.topk_tax_ms", median(tax[opTopK]), len(tax[opTopK]))
	res.set("cluster.shard_skew", median(skew), len(skew))
	return samples, nil
}

// mutationLayers times the write path's layers in-process, on a database
// opened from a snapshot of its own so that nothing else sees the writes.
func mutationLayers(c *corpus, db *core.Database, p paths, res *result) error {
	file := filepath.Join(p.work, "mutation.idx")
	if err := db.SaveFile(file, core.SnapshotBinary); err != nil {
		return err
	}
	scratch, err := core.OpenSnapshot(file)
	if err != nil {
		return err
	}
	const rounds = 8
	var addMS, columnMS, structMS []float64
	var added []int
	for _, pg := range c.pool[:rounds] {
		v := scratch.View()
		eng, err := prob.NewEngine(pg)
		if err != nil {
			return err
		}
		columnMS = append(columnMS, timeMS(func() { _, err = v.PMI.WithColumn(pg, eng) }))
		if err != nil {
			return err
		}
		structMS = append(structMS, timeMS(func() { v.Struct.WithGraph(pg.G) }))
		var slot int
		addMS = append(addMS, timeMS(func() { slot, _, err = scratch.AddGraph(pg) }))
		if err != nil {
			return err
		}
		added = append(added, slot)
	}
	for _, slot := range added {
		if _, err := scratch.RemoveGraph(slot); err != nil {
			return err
		}
	}
	compactMS := timeMS(func() { _, err = scratch.Compact() })
	if err != nil {
		return err
	}
	res.set("core.add_graph_ms", median(addMS), rounds)
	res.set("pmi.with_column_ms", median(columnMS), rounds)
	res.set("simsearch.with_graph_ms", median(structMS), rounds)
	res.set("core.compact_ms", compactMS, 1)
	return nil
}
