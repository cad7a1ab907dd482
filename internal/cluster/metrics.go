package cluster

import "probgraph/internal/obs"

// coordEndpoints are the coordinator's instrumented query endpoints, in
// registration (= exposition) order.
var coordEndpoints = []string{"query", "topk", "batch", "stream"}

// coordMetrics holds the coordinator's observability state: per-endpoint
// counters/latency mirroring the single-node server's families, plus the
// per-shard fan-out families the fleet view needs.
type coordMetrics struct {
	queries map[string]*obs.Counter   // endpoint -> accepted requests
	latency map[string]*obs.Histogram // endpoint -> wall-clock seconds

	shardRequests map[string]map[string]*obs.Counter // shard -> outcome -> count
	shardLatency  map[string]*obs.Histogram          // shard -> sub-request seconds
}

var shardOutcomes = []string{"ok", "http_error", "error"}

func newCoordMetrics(c *Coordinator, reg *obs.Registry) *coordMetrics {
	m := &coordMetrics{
		queries:       make(map[string]*obs.Counter, len(coordEndpoints)),
		latency:       make(map[string]*obs.Histogram, len(coordEndpoints)),
		shardRequests: make(map[string]map[string]*obs.Counter, len(c.shards)),
		shardLatency:  make(map[string]*obs.Histogram, len(c.shards)),
	}
	for _, ep := range coordEndpoints {
		m.queries[ep] = reg.Counter("pg_queries_total",
			"Queries accepted per endpoint (batch counts members; rejected requests are not counted).",
			"endpoint", ep)
		m.latency[ep] = reg.Histogram("pg_request_duration_seconds",
			"End-to-end request latency per endpoint.", nil, "endpoint", ep)
	}
	for _, sh := range c.shards {
		byOutcome := make(map[string]*obs.Counter, len(shardOutcomes))
		for _, oc := range shardOutcomes {
			byOutcome[oc] = reg.Counter("pg_shard_requests_total",
				"Shard sub-requests by outcome (ok = HTTP 200; http_error = shard answered non-200; error = transport failure after retries).",
				"shard", sh.Name, "outcome", oc)
		}
		m.shardRequests[sh.Name] = byOutcome
		m.shardLatency[sh.Name] = reg.Histogram("pg_shard_request_duration_seconds",
			"Shard sub-request latency, retries included.", nil, "shard", sh.Name)
	}
	reg.Collect("pg_shard_up", "gauge",
		"Shard health as the coordinator last saw it (1 = reachable).",
		func(emit func(string, float64)) {
			for _, sh := range c.shards {
				up := 0.0
				if c.health.healthy(sh.Name) {
					up = 1
				}
				emit(obs.Labels("shard", sh.Name), up)
			}
		})
	reg.Collect("pg_shards", "gauge", "Configured fleet size.",
		func(emit func(string, float64)) { emit("", float64(len(c.shards))) })
	reg.RegisterGoRuntime()
	return m
}

// totalQueries sums the per-endpoint counters (the /stats "queries"
// value).
func (m *coordMetrics) totalQueries() int64 {
	var n int64
	for _, c := range m.queries { //pgvet:sorted sums every counter; addition is order-insensitive
		n += c.Value()
	}
	return n
}
