package cluster

import (
	"context"
	"sync"
	"time"

	"probgraph/internal/obs"
)

// ShardHealthJSON is one shard's health record as /stats reports it.
// Healthy flips false after a transport failure and back true on the next
// successful exchange; an HTTP error status counts as success (the shard
// answered). The record is fed by real fan-out traffic plus /readyz
// probes — there is no background prober.
type ShardHealthJSON struct {
	Name                string  `json:"name"`
	URL                 string  `json:"url"`
	Healthy             bool    `json:"healthy"`
	LastError           string  `json:"last_error,omitempty"`
	ConsecutiveFailures int     `json:"consecutive_failures"`
	Requests            int64   `json:"requests"`
	Failures            int64   `json:"failures"`
	LastChangeMSAgo     float64 `json:"last_change_ms_ago,omitempty"`
}

// Outcomes of one shard sub-request, in pg_shard_requests_total's label
// order.
const (
	outcomeOK        = iota // HTTP 200
	outcomeHTTPError        // the shard answered non-200
	outcomeError            // transport failure after retries
)

var outcomeLabels = [...]string{"ok", "http_error", "error"}

// member is everything the coordinator keeps about one shard: who it is,
// how to reach it, its health record, and its metric series. The health
// fields are guarded by mu — a few field writes on the request path's
// tail, far off any hot loop.
type member struct {
	Shard
	outcomes [len(outcomeLabels)]*obs.Counter
	latency  *obs.Histogram

	mu         sync.Mutex
	healthy    bool
	lastError  string
	consec     int
	requests   int64
	failures   int64
	lastChange time.Time
}

func newMember(sh Shard, reg *obs.Registry) *member {
	// Shards start healthy: the fleet is presumed serviceable until a
	// request proves otherwise (readiness is /readyz's job).
	m := &member{Shard: sh, healthy: true}
	for oc, label := range outcomeLabels {
		m.outcomes[oc] = reg.Counter("pg_shard_requests_total",
			"Shard sub-requests by outcome (ok = HTTP 200; http_error = shard answered non-200; error = transport failure after retries).",
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
// histogram, outcome counter, and health record — unless the caller cut
// it short (see counts).
func (m *member) finish(ctx context.Context, start time.Time, err error) {
	if !counts(ctx, err) {
		return
	}
	m.latency.Observe(time.Since(start).Seconds())
	oc := outcomeError
	if err == nil {
		oc = outcomeOK
	} else if served(err) {
		oc = outcomeHTTPError
	}
	m.outcomes[oc].Inc()
	m.note(err)
}

// note feeds one exchange's outcome (nil, the shard's own structured
// failure, or a failed exchange) into the shard's health record. Only the
// last counts against it: a non-200 is a served answer (400/422/504...),
// not an outage — the shard is up and talking.
func (m *member) note(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests++
	if served(err) {
		if !m.healthy {
			m.healthy = true
			m.lastChange = time.Now()
		}
		m.consec = 0
		return
	}
	m.failures++
	m.consec++
	m.lastError = err.Error()
	if m.healthy {
		m.healthy = false
		m.lastChange = time.Now()
	}
}

// up reports the shard's current up/down view, for the pg_shard_up gauge.
func (m *member) up() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy
}

// report is the shard's /stats record.
func (m *member) report() ShardHealthJSON {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := ShardHealthJSON{
		Name: m.Name, URL: m.Client.URL(),
		Healthy:             m.healthy,
		LastError:           m.lastError,
		ConsecutiveFailures: m.consec,
		Requests:            m.requests,
		Failures:            m.failures,
	}
	if !m.lastChange.IsZero() {
		rec.LastChangeMSAgo = float64(time.Since(m.lastChange).Microseconds()) / 1000
	}
	return rec
}

// registerFleetGauges registers the fleet-wide families, after every
// member's own series.
func (c *Coordinator) registerFleetGauges() {
	c.reg.Collect("pg_shard_up", "gauge",
		"Shard health as the coordinator last saw it (1 = reachable).",
		func(emit func(string, float64)) {
			for _, m := range c.shards {
				up := 0.0
				if m.up() {
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
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for si, m := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[si] = c.probeReady(ctx, m)
		}()
	}
	wg.Wait()

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
// (ShardTimeout, else 2 s). The outcome feeds the health record like any
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

// Stats reports the coordinator's own counters plus every shard's health
// record.
func (c *Coordinator) Stats(queries int64) any {
	shards := make([]ShardHealthJSON, len(c.shards))
	for si, m := range c.shards {
		shards[si] = m.report()
	}
	return map[string]any{
		"shards":    shards,
		"queries":   queries,
		"uptime_ms": float64(time.Since(c.start).Microseconds()) / 1000,
	}
}
