package server

import (
	"net/http"
	"time"

	"probgraph/internal/obs"
)

// instrument wraps a query-endpoint handler with the observability
// middleware every Server shares: a fresh trace whose root span covers
// the handler (stage spans — or a fleet's shard sub-requests — attach
// under it), the pipeline bridge, the X-PG-Trace-Id response header, the
// endpoint latency histogram, and slowlog admission. The trace itself is
// cheap (one small allocation and mutex-guarded span appends at stage
// granularity); per-candidate hot paths never see it. Over a fleet the
// pipeline and slowlog are nil, which both obs types treat as off.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	latency, pipeline, slowlog := s.latency[endpoint], s.pipeline, s.slowlog
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewTrace()
		root := tr.Root(endpoint)
		ctx := obs.ContextWithSpan(r.Context(), root)
		ctx = obs.ContextWithPipeline(ctx, pipeline)
		w.Header().Set("X-PG-Trace-Id", tr.ID())
		h(w, r.WithContext(ctx))
		root.End()
		elapsed := time.Since(start)
		latency.Observe(elapsed.Seconds())
		durMS := float64(elapsed.Microseconds()) / 1000
		if slowlog.Admits(durMS) {
			slowlog.Offer(obs.SlowEntry{
				TraceID:    tr.ID(),
				Endpoint:   endpoint,
				Time:       start,
				DurationMS: durMS,
				Trace:      tr.Tree(),
			})
		}
	}
}

// TraceWanted reports whether the request opted into an inline span tree
// (trace=1 URL knob or the request body's trace field).
func TraceWanted(r *http.Request, bodyFlag bool) bool {
	return bodyFlag || r.URL.Query().Get("trace") == "1"
}

// TraceTree snapshots the request's span tree for inline delivery. The
// root span is still open (the middleware ends it after the response is
// written), so its duration reads as-of-now — evaluation is complete at
// every call site, only response encoding is excluded.
func TraceTree(r *http.Request) *obs.SpanNode {
	if tr := obs.TraceFrom(r.Context()); tr != nil {
		return tr.Tree()
	}
	return nil
}
