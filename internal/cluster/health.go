package cluster

import (
	"context"
	"sync"
	"time"
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

// healthTracker keeps per-shard health state, updated from fan-out
// outcomes. One mutex guards the whole map: updates are a few field
// writes on the request path's tail, far off any hot loop.
type healthTracker struct {
	mu sync.Mutex
	m  map[string]*shardHealth
}

type shardHealth struct {
	shard      Shard
	healthy    bool
	lastError  string
	consec     int
	requests   int64
	failures   int64
	lastChange time.Time
}

func newHealthTracker(shards []Shard) *healthTracker {
	h := &healthTracker{m: make(map[string]*shardHealth, len(shards))}
	for _, sh := range shards {
		// Shards start healthy: the fleet is presumed serviceable until a
		// request proves otherwise (readiness is /readyz's job).
		h.m[sh.Name] = &shardHealth{shard: sh, healthy: true}
	}
	return h
}

// record feeds one exchange's outcome (nil, the shard's own structured
// failure, or a failed exchange) into the shard's record. Only the last
// counts against it: a non-200 is a served answer (400/422/504...), not
// an outage — the shard is up and talking.
func (h *healthTracker) record(name string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	if st == nil {
		return
	}
	st.requests++
	if served(err) {
		if !st.healthy {
			st.healthy = true
			st.lastChange = time.Now()
		}
		st.consec = 0
		return
	}
	st.failures++
	st.consec++
	st.lastError = err.Error()
	if st.healthy {
		st.healthy = false
		st.lastChange = time.Now()
	}
}

// healthy reports a shard's current up/down view, for the pg_shard_up
// gauge.
func (h *healthTracker) healthy(name string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.m[name]
	return st != nil && st.healthy
}

// snapshot returns every shard's record in fleet order.
func (h *healthTracker) snapshot(order []Shard) []ShardHealthJSON {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]ShardHealthJSON, 0, len(order))
	for _, sh := range order {
		st := h.m[sh.Name]
		rec := ShardHealthJSON{
			Name: sh.Name, URL: sh.URL,
			Healthy:             st.healthy,
			LastError:           st.lastError,
			ConsecutiveFailures: st.consec,
			Requests:            st.requests,
			Failures:            st.failures,
		}
		if !st.lastChange.IsZero() {
			rec.LastChangeMSAgo = float64(time.Since(st.lastChange).Microseconds()) / 1000
		}
		out = append(out, rec)
	}
	return out
}

// Readyz is the fleet readiness probe: every shard's /readyz must answer
// 200 within the probe timeout. Not ready names the shards that are not
// — an orchestrator holds traffic until the whole fleet can answer,
// because any missing shard would fail every query anyway.
func (c *Coordinator) Readyz(ctx context.Context) (any, bool) {
	timeout := c.opt.ShardTimeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for si := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[si] = c.probeReady(ctx, si)
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

// probeReady GETs one shard's /readyz. The outcome feeds the health
// tracker like any other exchange: a shard that answers, even "not
// ready", is up.
func (c *Coordinator) probeReady(ctx context.Context, si int) error {
	err := c.clients[si].Get(ctx, "/readyz")
	c.health.record(c.shards[si].Name, err)
	return err
}

// Stats reports the coordinator's own counters plus every shard's health
// record.
func (c *Coordinator) Stats(queries int64) any {
	return map[string]any{
		"shards":    c.health.snapshot(c.shards),
		"queries":   queries,
		"uptime_ms": float64(time.Since(c.start).Microseconds()) / 1000,
	}
}
