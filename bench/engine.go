package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"probgraph/internal/core"
)

// answer is a read's outcome in a form that compares bitwise and is the same
// whether it came from an in-process call or off the wire.
type answer string

func floatBits(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func queryAnswer(answers []int, ssp map[int]float64) answer {
	var b strings.Builder
	fmt.Fprint(&b, "answers", answers, " ssp")
	ids := make([]int, 0, len(ssp))
	for gi := range ssp {
		ids = append(ids, gi)
	}
	sort.Ints(ids)
	for _, gi := range ids {
		fmt.Fprint(&b, " ", gi, ":", floatBits(ssp[gi]))
	}
	return answer(b.String())
}

func topkAnswer(graphs []int, ssps []float64) answer {
	var b strings.Builder
	b.WriteString("items")
	for i, gi := range graphs {
		fmt.Fprint(&b, " ", gi, ":", floatBits(ssps[i]))
	}
	return answer(b.String())
}

func topkItemsAnswer(items []core.TopKItem) answer {
	graphs := make([]int, len(items))
	ssps := make([]float64, len(items))
	for i, it := range items {
		graphs[i], ssps[i] = it.Graph, it.SSP
	}
	return topkAnswer(graphs, ssps)
}

// callView runs a query or top-k operation on a pinned view.
func callView(ctx context.Context, w workload, c *corpus, v *core.View, o op, workers int) (answer, error) {
	q := c.queries[o.queries[0]]
	opt := w.queryOptions(q, o.seed, workers)
	switch o.kind {
	case opQuery:
		res, err := v.QueryCtx(ctx, q.g, opt)
		if err != nil {
			return "", err
		}
		return queryAnswer(res.Answers, res.SSP), nil
	case opTopK:
		items, err := v.QueryTopKCtx(ctx, q.g, topK, opt)
		if err != nil {
			return "", err
		}
		return topkItemsAnswer(items), nil
	}
	return "", fmt.Errorf("callView: %v is not an in-process operation", o.kind)
}

// engineEnv is a built database with the reference answers of a run's keys.
type engineEnv struct {
	db   *core.Database
	view *core.View
	ref  map[string]answer
}

// engineSetUp builds the index from the raw graphs and runs one warm-up pass
// that builds the lazy inference engines. The pass runs on every core while
// the measured loop runs on one, so its answers double as the reference the
// measured answers must equal bitwise (the engine's determinism contract).
func engineSetUp(ctx context.Context, w workload, c *corpus, src *opSource) (*engineEnv, error) {
	db, err := core.NewDatabase(c.graphs, c.build)
	if err != nil {
		return nil, err
	}
	env := &engineEnv{db: db, view: db.View(), ref: map[string]answer{}}
	for qi := range c.queries {
		for _, kind := range []opKind{opQuery, opTopK} {
			o := op{kind: kind, queries: []int{qi}, seed: src.keySeed(0)}
			a, err := callView(ctx, w, c, env.view, o, -1)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", o.key(), err)
			}
			env.ref[o.key()] = a
		}
	}
	return env, nil
}

// sample is one measured operation.
type sample struct {
	kind   opKind
	ms     float64 // latency; from the due time in an open loop
	lateMS float64 // open loop: how long after its due time it was sent
	cached bool
	bytes  int
	failed bool
	// afterWrite marks the first read sent after a mutation committed.
	afterWrite bool
}

// exec runs one operation on one core and checks it against the reference.
func (env *engineEnv) exec(ctx context.Context, w workload, c *corpus, o op, res *result) sample {
	t := time.Now()
	a, err := callView(ctx, w, c, env.view, o, 1)
	s := sample{kind: o.kind, ms: msSince(t)}
	res.attempted++
	switch {
	case err != nil:
		s.failed = true
		res.fail("%s: %v", o.key(), err)
	case a != env.ref[o.key()]:
		s.failed = true
		res.fail("%s: serial answer differs from the parallel reference", o.key())
	}
	return s
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
