package cluster

import (
	"context"
	"sync/atomic"
	"time"

	"probgraph/internal/obs"
)

// Outcomes of one shard sub-request, in pg_shard_requests_total's label
// order.
const (
	outcomeOK          = iota // HTTP 200
	outcomeNotModified        // HTTP 304: the kept reply still holds
	outcomeHTTPError          // the shard answered another status
	outcomeError              // transport failure after retries
)

var outcomeLabels = [...]string{"ok", "not_modified", "http_error", "error"}

// member is everything the coordinator keeps about one shard: who it is,
// how to reach it, its health bit, and its metric series. The health bit
// is pg_shard_up: it flips false after a failed exchange and back true
// on the next served one. It is fed by real fan-out traffic plus /readyz
// probes — there is no background prober.
type member struct {
	Shard
	outcomes [len(outcomeLabels)]*obs.Counter
	latency  *obs.Histogram
	up       atomic.Bool
}

func newMember(sh Shard, reg *obs.Registry) *member {
	m := &member{Shard: sh}
	// Shards start up: the fleet is presumed serviceable until a request
	// proves otherwise (readiness is /readyz's job).
	m.up.Store(true)
	for oc, label := range outcomeLabels {
		m.outcomes[oc] = reg.Counter("pg_shard_requests_total",
			"Shard sub-requests by outcome (ok = HTTP 200; not_modified = HTTP 304 to a revalidation, the kept reply served; http_error = shard answered another status; error = transport failure after retries).",
			"shard", sh.Name, "outcome", label)
	}
	m.latency = reg.Histogram("pg_shard_request_duration_seconds",
		"Shard sub-request latency, retries included.", nil, "shard", sh.Name)
	return m
}

// counts reports whether an exchange's outcome is the shard's to answer
// for. It is not when the caller's context ended before the shard
// answered — a client disconnect, or a sibling stream's abort: the shard
// was cut off, not found wanting. A per-attempt deadline (ShardTimeout,
// the readiness probe's) ends only the attempt's own context, so it
// still counts.
func counts(ctx context.Context, err error) bool {
	return served(err) || ctx.Err() == nil
}

// finish feeds one finished sub-request into the shard's latency
// histogram, outcome counter, and health bit — unless the caller cut
// it short (see counts). A 304 (notModified) is a served answer like a
// 200.
func (m *member) finish(ctx context.Context, start time.Time, notModified bool, err error) {
	if !counts(ctx, err) {
		return
	}
	m.latency.Observe(time.Since(start).Seconds())
	oc := outcomeError
	switch {
	case notModified:
		oc = outcomeNotModified
	case err == nil:
		oc = outcomeOK
	case served(err):
		oc = outcomeHTTPError
	}
	m.outcomes[oc].Inc()
	m.note(err)
}

// note feeds one exchange's outcome (nil, the shard's own structured
// failure, or a failed exchange) into the shard's health bit. Only a
// failed exchange marks it down: a non-200 is a served answer
// (400/422/504...), not an outage — the shard is up and talking.
func (m *member) note(err error) { m.up.Store(served(err)) }

// registerFleetGauges registers the fleet-wide families, after every
// member's own series.
func (c *Coordinator) registerFleetGauges() {
	c.reg.Collect("pg_shard_up", "gauge",
		"Shard health as the coordinator last saw it (1 = reachable).",
		func(emit func(string, float64)) {
			for _, m := range c.shards {
				up := 0.0
				if m.up.Load() {
					up = 1
				}
				emit(obs.Labels("shard", m.Name), up)
			}
		})
	c.reg.Collect("pg_shards", "gauge", "Configured fleet size.",
		func(emit func(string, float64)) { emit("", float64(len(c.shards))) })
}

// Readyz is the fleet readiness probe: every shard's /readyz must answer
// 200 within the probe timeout. Not ready names the shards that are not
// — an orchestrator holds traffic until the whole fleet can answer,
// because any missing shard would fail every query anyway.
func (c *Coordinator) Readyz(ctx context.Context) (any, bool) {
	errs := c.everyShard(func(_ int, m *member) error { return c.probeReady(ctx, m) })
	out := map[string]any{"ready": true, "shards": len(c.shards)}
	var failed []string
	for si, err := range errs {
		if err != nil {
			failed = append(failed, c.shards[si].Name)
		}
	}
	if len(failed) > 0 {
		out["ready"], out["failed"] = false, failed
	}
	return out, len(failed) == 0
}

// probeReady GETs one shard's /readyz within the probe timeout
// (ShardTimeout, else 2 s). The outcome feeds the health bit like any
// other exchange: a shard that answers, even "not ready", is up.
func (c *Coordinator) probeReady(ctx context.Context, m *member) error {
	timeout := c.shardTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	err := m.Client.Get(pctx, "/readyz")
	if counts(ctx, err) {
		m.note(err)
	}
	return err
}
