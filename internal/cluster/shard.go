package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// served reports whether a sub-request error (or nil) is the shard's own
// answer — a 200 or a structured failure — rather than a failed exchange.
func served(err error) bool {
	var we *server.Error
	return err == nil || errors.As(err, &we)
}

// call performs one shard sub-request: POST body to path on shard si
// under the caller's context (client cancellation propagates into the
// shard), bounded per attempt by ShardTimeout, decoding a 200 into out.
// It is retried on transport errors only — an HTTP error status is the
// shard's answer, not a flaky network, and retrying a non-idempotent
// evaluation would change nothing anyway (responses are deterministic).
// Outcomes feed the shard's health record and metrics.
func (c *Coordinator) call(ctx context.Context, si int, path string, body []byte, out any) error {
	sp := obs.SpanFrom(ctx).Child("shard:" + c.shards[si].Name + path)
	defer sp.End()
	start := time.Now()
	var err error
	for attempt := 0; ; attempt++ {
		err = c.attempt(ctx, si, path, body, out)
		if served(err) || attempt >= c.opt.Retries || ctx.Err() != nil {
			break
		}
	}
	c.record(c.shards[si], start, err)
	return err
}

// attempt is one HTTP exchange with a shard.
func (c *Coordinator) attempt(ctx context.Context, si int, path string, body []byte, out any) error {
	if c.opt.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opt.ShardTimeout)
		defer cancel()
	}
	return c.clients[si].Post(ctx, path, body, out)
}

// record feeds one finished sub-request into the shard's latency
// histogram, outcome counter, and health record.
func (c *Coordinator) record(sh Shard, start time.Time, err error) {
	c.mx.shardLatency[sh.Name].Observe(time.Since(start).Seconds())
	outcome := "error"
	if err == nil {
		outcome = "ok"
	} else if served(err) {
		outcome = "http_error"
	}
	c.mx.shardRequests[sh.Name][outcome].Inc()
	c.health.record(sh.Name, err)
}

// shardError turns a failed sub-request into the answer the coordinator
// must give — never a silently partial result. A transport failure
// (after retries) is a 503 naming the shard, the structured "one shard
// down" answer. A shard's own structured error propagates with its
// status (504 deadline, 503 cancelled, 422 evaluation, 502 undecodable)
// and flags, prefixed with the shard name so operators see where it
// happened.
func shardError(sh Shard, err error) *server.Error {
	var we *server.Error
	switch {
	case errors.As(err, &we):
		e := *we
		e.Shard, e.Message = sh.Name, "shard "+sh.Name+": "+we.Message
		return &e
	case errors.Is(err, server.ErrStreamTruncated):
		return &server.Error{Status: http.StatusServiceUnavailable, Shard: sh.Name,
			Message: "shard " + sh.Name + ": " + err.Error()}
	}
	return &server.Error{Status: http.StatusServiceUnavailable, Shard: sh.Name,
		Message: fmt.Sprintf("shard %s (%s) unreachable: %v", sh.Name, sh.URL, err)}
}

// malformed is the 502 for a shard answer that decodes but cannot be
// merged: a missing member, names out of step with answers, a requested
// id left out.
func malformed(sh Shard) *server.Error {
	return &server.Error{Status: http.StatusBadGateway, Shard: sh.Name,
		Message: "shard " + sh.Name + ": undecodable response"}
}

// generationMismatch is the 503 for answers computed under different
// database generations — merging them would silently mix two database
// states. The fleet operator re-partitions all shards from one source
// snapshot, so a mismatch means a half-rolled-out fleet: retry when the
// rollout settles. Both parties are named.
func generationMismatch(a string, genA uint64, b string, genB uint64) *server.Error {
	return &server.Error{Status: http.StatusServiceUnavailable, Shard: b,
		Message: fmt.Sprintf("shard generation mismatch: %s at %d, %s at %d", a, genA, b, genB)}
}

// subRequest addresses one body to one shard (an index into c.shards).
type subRequest struct {
	shard int
	body  []byte
}

// gather is the fan-out every merged endpoint shares: POST each
// sub-request concurrently and wait for all of them (each bounded by
// ShardTimeout and the request context, so the wait is bounded too),
// decode each 200 into a T, let valid vet its shape — it reports the
// generation the answer was computed under, and false for an answer the
// merge could not safely index — and require one generation throughout.
// Answers come back in request order. Failed exchanges are reported
// before malformed or mismatched answers, and within each kind the first
// in request order, which keeps the choice deterministic when several
// shards fail at once.
func gather[T any](ctx context.Context, c *Coordinator, path string, reqs []subRequest, valid func(i int, v *T) (gen uint64, ok bool)) ([]*T, *server.Error) {
	outs := make([]*T, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, rq := range reqs {
		outs[i] = new(T)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.call(ctx, rq.shard, path, rq.body, outs[i])
		}()
	}
	wg.Wait()
	for i, rq := range reqs {
		if errs[i] != nil {
			return nil, shardError(c.shards[rq.shard], errs[i])
		}
	}
	var first uint64
	for i, rq := range reqs {
		gen, ok := valid(i, outs[i])
		if !ok {
			return nil, malformed(c.shards[rq.shard])
		}
		if i == 0 {
			first = gen
		} else if gen != first {
			return nil, generationMismatch(c.shards[reqs[0].shard].Name, first, c.shards[rq.shard].Name, gen)
		}
	}
	return outs, nil
}

// fanout gathers the same request from every shard, in fleet order.
func fanout[T any](ctx context.Context, c *Coordinator, path string, req any, valid func(i int, v *T) (gen uint64, ok bool)) ([]*T, *server.Error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, server.Errorf(http.StatusInternalServerError, "%v", err)
	}
	reqs := make([]subRequest, len(c.shards))
	for si := range reqs {
		reqs[si] = subRequest{si, body}
	}
	return gather(ctx, c, path, reqs, valid)
}
