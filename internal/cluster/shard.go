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
// Outcomes feed the shard's health bit and metrics.
func (c *Coordinator) call(ctx context.Context, si int, path string, body []byte, out any) error {
	m := c.shards[si]
	return obs.Stage(ctx, "shard:"+m.Name+path, func(ctx context.Context) (int64, error) {
		start := time.Now()
		var err error
		for attempt := 0; ; attempt++ {
			err = c.attempt(ctx, m, path, body, out)
			if served(err) || attempt >= c.retries || ctx.Err() != nil {
				break
			}
		}
		m.finish(ctx, start, err)
		return 0, err
	})
}

// attempt is one exchange with a shard.
func (c *Coordinator) attempt(ctx context.Context, m *member, path string, body []byte, out any) error {
	if c.shardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.shardTimeout)
		defer cancel()
	}
	return m.Client.Post(ctx, path, body, out)
}

// shardError turns a failed sub-request into the answer the coordinator
// must give — never a silently partial result. A transport failure
// (after retries) is a 503 naming the shard, the structured "one shard
// down" answer. A shard's own structured error propagates with its
// status (504 deadline, 503 cancelled, 422 evaluation, 502 undecodable)
// and flags, prefixed with the shard name so operators see where it
// happened.
func shardError(m *member, err error) *server.Error {
	var we *server.Error
	switch {
	case errors.As(err, &we):
		e := *we
		e.Shard, e.Message = m.Name, "shard "+m.Name+": "+we.Message
		return &e
	case errors.Is(err, server.ErrStreamTruncated):
		return &server.Error{Status: http.StatusServiceUnavailable, Shard: m.Name,
			Message: "shard " + m.Name + ": " + err.Error()}
	}
	return &server.Error{Status: http.StatusServiceUnavailable, Shard: m.Name,
		Message: fmt.Sprintf("shard %s (%s) unreachable: %v", m.Name, m.Client.URL(), err)}
}

// malformed is the 502 for a shard answer that decodes but cannot be
// merged: a missing member, names out of step with answers, a requested
// id left out.
func malformed(m *member) *server.Error {
	return &server.Error{Status: http.StatusBadGateway, Shard: m.Name,
		Message: "shard " + m.Name + ": undecodable response"}
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

// everyShard runs f once per shard, each on its own goroutine, waits for
// all of them, and returns their errors in fleet order. It is the one place
// the coordinator reaches the whole fleet: fanout, Readyz and Stream.
func (c *Coordinator) everyShard(f func(si int, m *member) error) []error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for si, m := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[si] = f(si, m)
		}()
	}
	wg.Wait()
	return errs
}

// fanout is the fan-out every merged endpoint shares: POST the same
// request to every shard concurrently and wait for all of them (each
// bounded by ShardTimeout and the request context, so the wait is bounded
// too), decode each 200 into a T, let valid vet its shape — it reports
// the generation the answer was computed under, and false for an answer
// the merge could not safely index — and require one generation
// throughout. Answers come back in fleet order. Failed exchanges are
// reported before malformed or mismatched answers, and within each kind
// the first in fleet order, which keeps the choice deterministic when
// several shards fail at once.
func fanout[T any](ctx context.Context, c *Coordinator, path string, req any, valid func(v *T) (gen uint64, ok bool)) ([]*T, *server.Error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, server.Errorf(http.StatusInternalServerError, "%v", err)
	}
	outs := make([]*T, len(c.shards))
	for si := range outs {
		outs[si] = new(T)
	}
	errs := c.everyShard(func(si int, _ *member) error {
		return c.call(ctx, si, path, body, outs[si])
	})
	for si, err := range errs {
		if err != nil {
			return nil, shardError(c.shards[si], err)
		}
	}
	var first uint64
	for si, out := range outs {
		gen, ok := valid(out)
		if !ok {
			return nil, malformed(c.shards[si])
		}
		if si == 0 {
			first = gen
		} else if gen != first {
			return nil, generationMismatch(c.shards[0].Name, first, c.shards[si].Name, gen)
		}
	}
	return outs, nil
}
