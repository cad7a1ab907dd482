package obs

import (
	"context"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// expositionLine matches one valid Prometheus text-format line: a HELP or
// TYPE comment, or a sample with optional labels and a float value.
var expositionLine = regexp.MustCompile(
	`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
		`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[-+]?Inf|[-+]?[0-9].*))$`)

func scrape(t *testing.T, r *Registry) map[string]string {
	t.Helper()
	var b strings.Builder
	r.WritePrometheus(&b)
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
		if !expositionLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		out[line[:sp]] = line[sp+1:]
	}
	return out
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pg_test_total", "Test counter.", "endpoint", "query")
	g := r.Gauge("pg_test_gauge", "Test gauge.")
	h := r.Histogram("pg_test_seconds", "Test histogram.", []float64{0.01, 0.1, 1})
	r.Collect("pg_test_dyn", "gauge", "Dynamic.", func(emit func(string, float64)) {
		emit(Labels("generation", "3"), 7)
	})
	r.RegisterGoRuntime()

	c.Add(2)
	c.Inc()
	g.Set(1.5)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	m := scrape(t, r)
	for key, want := range map[string]string{
		`pg_test_total{endpoint="query"}`:   "3",
		`pg_test_gauge`:                     "1.5",
		`pg_test_seconds_bucket{le="0.01"}`: "0",
		`pg_test_seconds_bucket{le="0.1"}`:  "2",
		`pg_test_seconds_bucket{le="1"}`:    "2",
		`pg_test_seconds_bucket{le="+Inf"}`: "3",
		`pg_test_seconds_count`:             "3",
		`pg_test_seconds_sum`:               "5.1",
		`pg_test_dyn{generation="3"}`:       "7",
	} {
		if got := m[key]; got != want {
			t.Errorf("%s = %q, want %q", key, got, want)
		}
	}
	if _, ok := m["go_goroutines"]; !ok {
		t.Error("go_goroutines missing from runtime collectors")
	}
}

func TestHistogramBoundaryAndConcurrency(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1) // exactly on a bound: le="1" is inclusive
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	m := scrape(t, r)
	if m[`h_seconds_bucket{le="1"}`] != "8000" {
		t.Fatalf(`le="1" bucket = %s, want 8000 (upper bounds are inclusive)`, m[`h_seconds_bucket{le="1"}`])
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "c", "name", "a\"b\\c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	if !strings.Contains(b.String(), `esc_total{name="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}

func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace()
	if tr.ID() == "" || NewTrace().ID() == tr.ID() {
		t.Fatal("trace IDs must be non-empty and distinct")
	}
	root := tr.Root("query")
	ctx := ContextWithSpan(context.Background(), root)

	stage := SpanFrom(ctx).Child("struct_filter")
	sctx := ContextWithSpan(ctx, stage)
	for i := 0; i < 3; i++ {
		sh := SpanFrom(sctx).Child("part")
		sh.EndCount(int64(i))
	}
	stage.EndCount(9)
	root.End()

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if spans[0].Parent != -1 || spans[1].Parent != 0 {
		t.Fatalf("parent chain wrong: %+v", spans[:2])
	}
	for i := 2; i < 5; i++ {
		if spans[i].Parent != 1 {
			t.Fatalf("part span %d parent = %d, want 1", i, spans[i].Parent)
		}
	}
	if tr.OpenSpans() != 0 {
		t.Fatalf("%d open spans after End, want 0", tr.OpenSpans())
	}
	tree := tr.Tree()
	if tree.Name != "query" || len(tree.Children) != 1 ||
		tree.Children[0].Name != "struct_filter" || len(tree.Children[0].Children) != 3 {
		t.Fatalf("tree shape wrong: %+v", tree)
	}
	if tree.Children[0].Count != 9 {
		t.Fatalf("struct_filter count = %d, want 9", tree.Children[0].Count)
	}
}

func TestZeroSpanIsInert(t *testing.T) {
	var s Span
	if s.Active() || s.Trace() != nil {
		t.Fatal("zero span must be inactive")
	}
	c := s.Child("x") // must not panic, must stay inert
	c.End()
	c.EndCount(3)
	ctx := context.Background()
	if ContextWithSpan(ctx, s) != ctx {
		t.Fatal("attaching the zero span must return ctx unchanged")
	}
	if SpanFrom(ctx).Active() || TraceFrom(ctx) != nil {
		t.Fatal("empty context must yield the zero span")
	}
	allocs := testing.AllocsPerRun(100, func() {
		sp := SpanFrom(ctx)
		sp.Child("y").End()
		_ = ContextWithSpan(ctx, sp)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

func TestSlowlogKeepsSlowest(t *testing.T) {
	sl := NewSlowlog(3)
	for _, d := range []float64{5, 1, 9, 3, 7, 2} {
		if sl.Admits(d) {
			sl.Offer(SlowEntry{TraceID: "t", DurationMS: d, Time: time.Now()})
		}
	}
	got := sl.Snapshot()
	if len(got) != 3 || got[0].DurationMS != 9 || got[1].DurationMS != 7 || got[2].DurationMS != 5 {
		t.Fatalf("slowlog = %+v, want durations [9 7 5]", got)
	}
	if sl.Admits(4) {
		t.Fatal("4ms must not be admitted past floor 5")
	}
	var nilLog *Slowlog
	nilLog.Offer(SlowEntry{}) // nil log ignores everything
	if nilLog.Admits(1) || len(nilLog.Snapshot()) != 0 {
		t.Fatal("nil slowlog must be inert")
	}
}

func TestPipelineObserve(t *testing.T) {
	p := NewPipeline(NewRegistry())
	ctx := context.Background()
	if ContextWithPipeline(ctx, nil) != ctx || PipelineFrom(ctx) != nil {
		t.Fatal("nil pipeline context plumbing must be inert")
	}
	ctx2 := ContextWithPipeline(ctx, p)
	if PipelineFrom(ctx2) != p {
		t.Fatal("pipeline not recovered from context")
	}
}

func TestNewLogger(t *testing.T) {
	var b strings.Builder
	lg, err := NewLogger(&b, "json", "debug")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hello", "k", 1)
	if !strings.Contains(b.String(), `"msg":"hello"`) || !strings.Contains(b.String(), `"k":1`) {
		t.Fatalf("json log line wrong: %s", b.String())
	}
	if _, err := NewLogger(&b, "yaml", "info"); err == nil {
		t.Fatal("unknown format must error")
	}
	if _, err := NewLogger(&b, "text", "loud"); err == nil {
		t.Fatal("unknown level must error")
	}
}
