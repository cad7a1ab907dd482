package cluster

import "probgraph/internal/obs"

// coordMetrics holds the per-shard fan-out families the fleet view needs;
// the request families (pg_queries_total, pg_request_duration_seconds)
// are the shared handler set's, registered by server.NewOver.
type coordMetrics struct {
	shardRequests map[string]map[string]*obs.Counter // shard -> outcome -> count
	shardLatency  map[string]*obs.Histogram          // shard -> sub-request seconds
}

var shardOutcomes = []string{"ok", "http_error", "error"}

func newCoordMetrics(c *Coordinator, reg *obs.Registry) *coordMetrics {
	m := &coordMetrics{
		shardRequests: make(map[string]map[string]*obs.Counter, len(c.shards)),
		shardLatency:  make(map[string]*obs.Histogram, len(c.shards)),
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
	return m
}
