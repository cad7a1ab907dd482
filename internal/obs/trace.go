package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records the span tree of one query: a span per pipeline stage
// (relax → struct filter → PMI prune | bounds → verify | top-k commit), with
// the exact confirmations as a child of the structural stage and, in the
// coordinator, one child per fleet shard asked. It is carried through
// context.Context (ContextWithSpan) so the engine's layers can attach
// spans without new parameters, and it is safe for concurrent use —
// parallel fan-out and candidate workers append under one mutex at
// stage granularity, never per candidate.
//
// Cost model: with no trace attached, SpanFrom returns the zero Span and
// every Span method is a no-op — the disabled path does zero allocation
// and zero synchronization (pinned by core's AllocsPerRun tests). With a
// trace attached, cost is a bounded handful of appends per query,
// independent of candidate count.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []SpanData
}

// SpanData is one recorded span. Parent indexes Spans() (-1 for roots);
// Start is the offset from the trace's creation, Duration is valid once
// Done is set, and Count carries an optional item count (candidates
// confirmed, relaxed queries, ...).
type SpanData struct {
	Name     string
	Parent   int
	Start    time.Duration
	Duration time.Duration
	Count    int64
	Done     bool
}

// Trace IDs: a process-random base whisked with a counter — unique within
// and (with high probability) across processes, no per-trace entropy read.
var (
	traceBase = func() uint64 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.LittleEndian.Uint64(b[:])
	}()
	traceSeq atomic.Uint64
)

// NewTrace starts an empty trace with a fresh ID; its clock starts now.
func NewTrace() *Trace {
	z := traceBase + traceSeq.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= z >> 27
	return &Trace{id: fmt.Sprintf("%016x", z), start: time.Now()}
}

// ID returns the trace identifier surfaced as X-PG-Trace-Id.
func (t *Trace) ID() string { return t.id }

// Span is a nil-safe handle on one trace span. The zero Span (no trace)
// ignores every operation, which is what keeps the untraced hot path
// allocation- and lock-free.
type Span struct {
	tr  *Trace
	idx int32
}

// Active reports whether the span belongs to a live trace.
func (s Span) Active() bool { return s.tr != nil }

// Trace returns the owning trace, nil for the zero Span.
func (s Span) Trace() *Trace { return s.tr }

func (t *Trace) newSpan(name string, parent int) Span {
	now := time.Since(t.start)
	t.mu.Lock()
	idx := len(t.spans)
	t.spans = append(t.spans, SpanData{Name: name, Parent: parent, Start: now})
	t.mu.Unlock()
	return Span{tr: t, idx: int32(idx)}
}

// Root opens a top-level span (Parent -1).
func (t *Trace) Root(name string) Span { return t.newSpan(name, -1) }

// Child opens a span under s. On the zero Span it returns the zero Span.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	return s.tr.newSpan(name, int(s.idx))
}

// Stage runs f as one pipeline stage: it opens the span name under ctx's
// span, hands f a context carrying that span (so f's own stages nest
// under it), and ends the span with f's count when f returns — on an
// error and on a panic too, when the count is 0. Stage returns f's error.
// With no trace attached, f runs on ctx itself and nothing is allocated.
func Stage(ctx context.Context, name string, f func(context.Context) (count int64, err error)) error {
	var n int64
	sp := SpanFrom(ctx).Child(name)
	defer func() { sp.EndCount(n) }()
	n, err := f(ContextWithSpan(ctx, sp))
	return err
}

// End closes the span. No-op on the zero Span; closing twice keeps the
// first duration.
func (s Span) End() { s.end(0, false) }

// EndCount closes the span and records an item count.
func (s Span) EndCount(n int64) { s.end(n, true) }

func (s Span) end(n int64, setCount bool) {
	if s.tr == nil {
		return
	}
	now := time.Since(s.tr.start)
	s.tr.mu.Lock()
	sp := &s.tr.spans[s.idx]
	if !sp.Done {
		sp.Done = true
		sp.Duration = now - sp.Start
	}
	if setCount {
		sp.Count = n
	}
	s.tr.mu.Unlock()
}

// Spans returns a copy of the recorded spans in creation order.
func (t *Trace) Spans() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanData(nil), t.spans...)
}

// OpenSpans counts spans not yet ended — 0 after any complete query run,
// cancelled ones included: every stage span is opened and ended by Stage,
// whose deferred end runs on every exit from the stage.
func (t *Trace) OpenSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	open := 0
	for i := range t.spans {
		if !t.spans[i].Done {
			open++
		}
	}
	return open
}

// SpanNode is the JSON-marshalable span tree inlined into responses by
// the trace=1 request knob and stored in the slowlog.
type SpanNode struct {
	Name       string      `json:"name"`
	StartMS    float64     `json:"start_ms"`
	DurationMS float64     `json:"duration_ms"`
	Count      int64       `json:"count,omitempty"`
	Children   []*SpanNode `json:"children,omitempty"`
}

// Tree assembles the span tree. Spans still open (a scrape racing a live
// query) report their duration as of now. Multiple roots are wrapped
// under a synthetic "trace" node; the usual single root is returned
// directly.
func (t *Trace) Tree() *SpanNode {
	now := time.Since(t.start)
	t.mu.Lock()
	spans := append([]SpanData(nil), t.spans...)
	t.mu.Unlock()

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	nodes := make([]*SpanNode, len(spans))
	for i, sp := range spans {
		d := sp.Duration
		if !sp.Done {
			d = now - sp.Start
		}
		nodes[i] = &SpanNode{Name: sp.Name, StartMS: ms(sp.Start), DurationMS: ms(d), Count: sp.Count}
	}
	var roots []*SpanNode
	for i, sp := range spans {
		if sp.Parent >= 0 && sp.Parent < len(nodes) {
			nodes[sp.Parent].Children = append(nodes[sp.Parent].Children, nodes[i])
		} else {
			roots = append(roots, nodes[i])
		}
	}
	switch len(roots) {
	case 0:
		return nil
	case 1:
		return roots[0]
	}
	return &SpanNode{Name: "trace", DurationMS: ms(now), Children: roots}
}

type spanCtxKey struct{}

// ContextWithSpan attaches s as the context's current span — the parent
// that downstream stages hang their children from. Attaching the zero
// Span returns ctx unchanged, so untraced calls pay nothing.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if s.tr == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the context's current span, or the zero Span. The
// lookup itself never allocates.
func SpanFrom(ctx context.Context) Span {
	s, _ := ctx.Value(spanCtxKey{}).(Span)
	return s
}

// TraceFrom returns the trace the context's span belongs to, or nil.
func TraceFrom(ctx context.Context) *Trace { return SpanFrom(ctx).tr }
