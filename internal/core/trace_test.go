package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
)

// tracedQueryCtx returns a context carrying a fresh trace root plus the
// trace and root for post-run inspection.
func tracedQueryCtx() (context.Context, *obs.Trace, obs.Span) {
	tr := obs.NewTrace()
	root := tr.Root("query")
	return obs.ContextWithSpan(context.Background(), root), tr, root
}

// findChild returns the first direct child with the given name, or nil.
func findChild(n *obs.SpanNode, name string) *obs.SpanNode {
	for _, c := range n.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestQuerySpanTreeMatchesStats runs one traced query and checks that the
// span tree's stage structure and item counts correspond to the Stats the
// same query reports: struct_filter carries |SCq| (the count scan is its
// own time, the exact-confirmation span its only child), relax carries |U|,
// and verify covers every structural candidate. This is the acceptance
// contract — the trace is a faithful account of the pipeline, not a
// parallel bookkeeping that can drift.
func TestQuerySpanTreeMatchesStats(t *testing.T) {
	db, raw := snapDB(t, 12)
	v := db.View()
	for qi, q := range snapQueries(t, raw, 4) {
		opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: int64(3 + qi)}
		ctx, tr, root := tracedQueryCtx()
		res, err := v.query(ctx, q, opt.withDefaults(), nil)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		if n := tr.OpenSpans(); n != 0 {
			t.Fatalf("query %d: %d spans still open after completion", qi, n)
		}
		tree := tr.Tree()
		if tree.Name != "query" {
			t.Fatalf("query %d: root span %q, want query", qi, tree.Name)
		}
		sf := findChild(tree, "struct_filter")
		if sf == nil {
			t.Fatalf("query %d: no struct_filter span in %+v", qi, tree)
		}
		if int(sf.Count) != res.Stats.StructConfirmed {
			t.Errorf("query %d: struct_filter count %d != StructConfirmed %d",
				qi, sf.Count, res.Stats.StructConfirmed)
		}
		if len(sf.Children) != 1 {
			t.Errorf("query %d: struct_filter has %d children, want confirm alone", qi, len(sf.Children))
		}
		if c := findChild(sf, "confirm"); c == nil {
			t.Errorf("query %d: struct_filter has no confirm span", qi)
		} else if int(c.Count) != res.Stats.StructFilterCandidates {
			t.Errorf("query %d: confirm count %d != StructFilterCandidates %d",
				qi, c.Count, res.Stats.StructFilterCandidates)
		}
		rx := findChild(tree, "relax")
		if rx == nil || int(rx.Count) != res.Stats.RelaxedQueries {
			t.Errorf("query %d: relax span %+v, want count %d", qi, rx, res.Stats.RelaxedQueries)
		}
		if findChild(tree, "pmi_prune") == nil {
			t.Errorf("query %d: no pmi_prune span (PMI is built in this fixture)", qi)
		}
		vf := findChild(tree, "verify")
		if vf == nil || int(vf.Count) != res.Stats.StructConfirmed {
			t.Errorf("query %d: verify span %+v, want count %d", qi, vf, res.Stats.StructConfirmed)
		}
		for _, n := range tree.Children {
			if n.DurationMS < 0 {
				t.Errorf("query %d: span %s has negative duration", qi, n.Name)
			}
		}
	}
}

// TestFrontHalfSpansAgree: every entry point starts from the one query
// plan, so the span tree of a threshold query, a stream and a top-k run
// open with the same children — relax (count |U|), struct_filter (with its
// confirm child), then the form's probabilistic stage: pmi_prune for the
// threshold forms, bounds for the ranked ones. The stream used to lack its
// relax span.
func TestFrontHalfSpansAgree(t *testing.T) {
	db, raw := snapDB(t, 12)
	v := db.View()
	q := snapQueries(t, raw, 1)[0]
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 3}
	runs := []struct {
		name  string
		stage string // last front-half span
		run   func(ctx context.Context) error
	}{
		{"QueryCtx", "pmi_prune", func(ctx context.Context) error {
			_, err := v.QueryCtx(ctx, q, opt)
			return err
		}},
		{"QueryStream", "pmi_prune", func(ctx context.Context) error {
			for _, err := range v.QueryStream(ctx, q, opt) {
				if err != nil {
					return err
				}
			}
			return nil
		}},
		{"QueryTopKCtx", "bounds", func(ctx context.Context) error {
			_, err := v.QueryTopKCtx(ctx, q, 3, opt)
			return err
		}},
		{"QueryTopKBounds", "bounds", func(ctx context.Context) error {
			_, _, err := v.QueryTopKBounds(ctx, q, 3, opt)
			return err
		}},
	}
	var relaxed int64
	for _, r := range runs {
		ctx, tr, root := tracedQueryCtx()
		err := r.run(ctx)
		root.End()
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if n := tr.OpenSpans(); n != 0 {
			t.Fatalf("%s: %d spans still open", r.name, n)
		}
		tree := tr.Tree()
		var front []string
		for _, c := range tree.Children {
			if c.Name == "verify" || c.Name == "topk_commit" {
				break
			}
			front = append(front, c.Name)
		}
		if want := []string{"relax", "struct_filter", r.stage}; !reflect.DeepEqual(front, want) {
			t.Errorf("%s: front-half spans %v, want %v", r.name, front, want)
			continue
		}
		if findChild(findChild(tree, "struct_filter"), "confirm") == nil {
			t.Errorf("%s: struct_filter has no confirm child", r.name)
		}
		rx := findChild(tree, "relax")
		if relaxed == 0 {
			relaxed = rx.Count
		}
		if rx.Count == 0 || rx.Count != relaxed {
			t.Errorf("%s: relax span counts %d relaxed queries, the first run %d", r.name, rx.Count, relaxed)
		}
	}
}

// TestPipelineBridgeMatchesStats attaches an obs.Pipeline to the query
// context and checks the process counters and stage histograms absorb
// exactly the per-query Stats — the bridge /metrics depends on. The option
// sets make every counter non-zero (the first prunes, rejects by bound,
// decides exactly and samples; the last accepts by the lower bound) and
// every counter's total distinct, so no field passes by both sides being
// 0 and no two fields can be swapped unseen.
func TestPipelineBridgeMatchesStats(t *testing.T) {
	db, _ := smallDatabase(t, 2001, 16, true)
	v := db.View()
	rng := rand.New(rand.NewSource(61))
	var qs []*graph.Graph
	for i := 0; i < 3; i++ {
		qs = append(qs, dataset.ExtractQuery(v.Certain[i], 5, rng))
	}
	p := obs.NewPipeline(obs.NewRegistry())
	ctx := obs.ContextWithPipeline(context.Background(), p)

	var want Stats
	var wantStruct, wantProb, wantVerify float64
	opts := []QueryOptions{{Epsilon: 0.3, Delta: 2}, {Epsilon: 0.02, Delta: 2}, {Epsilon: 0.1, Delta: 3}}
	for _, o := range opts {
		for qi, q := range qs {
			o.OptBounds, o.Seed, o.Verify.N = true, int64(qi), 500
			res, err := v.query(ctx, q, o.withDefaults(), nil)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			want.StructFilterCandidates += s.StructFilterCandidates
			want.StructConfirmed += s.StructConfirmed
			want.PrunedByUpper += s.PrunedByUpper
			want.AcceptedByLower += s.AcceptedByLower
			want.VerifyCandidates += s.VerifyCandidates
			want.Answers += s.Answers
			want.RelaxedQueries += s.RelaxedQueries
			want.RejectedByBound += s.RejectedByBound
			want.DecidedExactly += s.DecidedExactly
			want.SamplesDrawn += s.SamplesDrawn
			wantStruct += s.TimeStruct.Seconds()
			wantProb += s.TimeProb.Seconds()
			wantVerify += s.TimeVerify.Seconds()
		}
	}
	got := map[string]int64{
		"struct_candidates": p.StructCandidates.Value(),
		"struct_confirmed":  p.StructConfirmed.Value(),
		"pruned_upper":      p.PrunedUpper.Value(),
		"accepted_lower":    p.AcceptedLower.Value(),
		"verified":          p.Verified.Value(),
		"answers":           p.Answers.Value(),
		"relaxed":           p.Relaxed.Value(),
		"rejected_by_bound": p.VerifyRejectedByBound.Value(),
		"decided_exactly":   p.VerifyDecidedExactly.Value(),
		"samples":           p.VerifySamples.Value(),
	}
	wantM := map[string]int64{
		"struct_candidates": int64(want.StructFilterCandidates),
		"struct_confirmed":  int64(want.StructConfirmed),
		"pruned_upper":      int64(want.PrunedByUpper),
		"accepted_lower":    int64(want.AcceptedByLower),
		"verified":          int64(want.VerifyCandidates),
		"answers":           int64(want.Answers),
		"relaxed":           int64(want.RelaxedQueries),
		"rejected_by_bound": int64(want.RejectedByBound),
		"decided_exactly":   int64(want.DecidedExactly),
		"samples":           int64(want.SamplesDrawn),
	}
	for name, n := range wantM {
		if n == 0 {
			t.Errorf("summed Stats give %s = 0: the options no longer exercise it", name)
		}
	}
	if !reflect.DeepEqual(got, wantM) {
		t.Fatalf("pipeline counters diverge from summed Stats:\n got %v\nwant %v", got, wantM)
	}
	queries := int64(len(opts) * len(qs))
	for _, h := range []struct {
		name string
		h    *obs.Histogram
		sum  float64
	}{{"struct", p.StageStruct, wantStruct}, {"prob", p.StageProb, wantProb}, {"verify", p.StageVerify, wantVerify}} {
		if n := h.h.Count(); n != queries {
			t.Errorf("stage %s histogram observed %d queries, want %d", h.name, n, queries)
		}
		if h.h.Sum() != h.sum {
			t.Errorf("stage %s histogram sums %v s, Stats sum %v s", h.name, h.h.Sum(), h.sum)
		}
	}
}

// errAfterCtx cancels itself after its Err method has been consulted
// limit times. The worker pool checks Err per work item (serial path
// included), so this produces a deterministic mid-pipeline cancellation
// at an exact, sweepable point — no timing involved.
type errAfterCtx struct {
	context.Context // carries the trace span; Value passes through
	calls           atomic.Int64
	limit           int64
}

func (c *errAfterCtx) Err() error {
	if c.calls.Add(1) > c.limit {
		return context.Canceled
	}
	return nil
}

// TestCancelledQueryClosesSpans sweeps the cancellation point across the
// whole pipeline and asserts the invariant the slowlog and trace readers
// rely on: however a query dies, every span it opened is closed by the
// time it returns.
func TestCancelledQueryClosesSpans(t *testing.T) {
	db, raw := snapDB(t, 12)
	v := db.View()
	q := snapQueries(t, raw, 1)[0]
	opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: 5}.withDefaults()

	sawCancel := false
	for limit := int64(1); limit < 10_000; limit++ {
		base, tr, root := tracedQueryCtx()
		ctx := &errAfterCtx{Context: base, limit: limit}
		_, err := v.query(ctx, q, opt, nil)
		root.End()
		if n := tr.OpenSpans(); n != 0 {
			t.Fatalf("limit %d: %d spans open after query returned (err=%v)", limit, n, err)
		}
		if err == nil {
			// The budget outlasted the whole pipeline; every earlier limit
			// cancelled somewhere inside it.
			if !sawCancel {
				t.Fatal("fixture query consulted ctx.Err() zero times")
			}
			return
		}
		sawCancel = true
	}
	t.Fatal("query never completed within the Err-budget sweep")
}

// TestTracedEqualsUntraced pins the determinism contract extension:
// serial ≡ parallel ≡ traced ≡ untraced, bitwise — tracing observes the
// pipeline, it must never perturb answers, SSP floats, or counters.
func TestTracedEqualsUntraced(t *testing.T) {
	db, raw := snapDB(t, 12)
	v := db.View()
	for qi, q := range snapQueries(t, raw, 3) {
		opt := QueryOptions{Epsilon: 0.4, Delta: 1, OptBounds: true, Seed: int64(11 + qi)}
		want, err := v.query(context.Background(), q, opt.withDefaults(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			o := opt
			o.Concurrency = workers
			ctx, _, root := tracedQueryCtx()
			got, err := v.query(ctx, q, o.withDefaults(), nil)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answers, want.Answers) || !reflect.DeepEqual(got.SSP, want.SSP) {
				t.Fatalf("query %d workers=%d: traced result diverges from untraced", qi, workers)
			}
			if got.Stats.PrunedByUpper != want.Stats.PrunedByUpper ||
				got.Stats.VerifyCandidates != want.Stats.VerifyCandidates {
				t.Fatalf("query %d workers=%d: traced counters diverge", qi, workers)
			}
		}
	}
}
