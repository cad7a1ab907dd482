package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
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
// shard), bounded per attempt by ShardTimeout, decoding a 200 into out and
// returning its ETag. A non-empty tag — the ETag of the shard's reply the
// coordinator kept for this body — makes the request conditional, and a
// 304 reports notModified with out untouched. It is retried on transport
// errors only — an HTTP error status is the shard's answer, not a flaky
// network, and retrying a non-idempotent evaluation would change nothing
// anyway (responses are deterministic). Outcomes feed the shard's health
// bit and metrics.
func (c *Coordinator) call(ctx context.Context, si int, path string, body []byte, tag string, out any) (etag string, notModified bool, err error) {
	m := c.shards[si]
	err = obs.Stage(ctx, "shard:"+m.Name+path, func(ctx context.Context) (int64, error) {
		start := time.Now()
		var err error
		for attempt := 0; ; attempt++ {
			etag, notModified, err = c.attempt(ctx, m, path, body, tag, out)
			if served(err) || attempt >= c.retries || ctx.Err() != nil {
				break
			}
		}
		m.finish(ctx, start, notModified, err)
		return 0, err
	})
	return etag, notModified, err
}

// attempt is one exchange with a shard.
func (c *Coordinator) attempt(ctx context.Context, m *member, path string, body []byte, tag string, out any) (string, bool, error) {
	if c.shardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.shardTimeout)
		defer cancel()
	}
	return m.Client.PostIfNoneMatch(ctx, path, body, tag, out)
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

// kept is what the coordinator keeps of one sub-request body's last
// successful fan-out: each shard's reply and the ETag it came with, in
// fleet order ("" for a shard that tags nothing). A kept value is never
// written again — merges only read replies, and a later fan-out stores a
// new kept — so concurrent requests share it freely.
type kept[T any] struct {
	tags    []string
	replies []*T
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
//
// With keep — the request is neither no_cache nor traced — the fan-out
// revalidates (RFC 9110 §13): each shard's reply to the same path and body
// last time is sent back by its ETag as If-None-Match, and a shard that
// answers 304 contributes that kept reply, undecoded and unevaluated, its
// revalidated entry set. A kept reply is used only on its shard's 304: a
// shard that is down, fails, or has moved to another generation answers
// as it would without one. A successful fan-out keeps its replies for the
// next request with the same body.
func fanout[T any](ctx context.Context, c *Coordinator, path string, req any, keep bool, valid func(v *T) (gen uint64, ok bool)) (outs []*T, revalidated []bool, e *server.Error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, server.Errorf(http.StatusInternalServerError, "%v", err)
	}
	var key string
	var prev *kept[T]
	if keep {
		key = path + "\x00" + string(body)
		if v, ok := c.kept.Get(key); ok {
			prev = v.(*kept[T])
		}
	}
	now := &kept[T]{tags: make([]string, len(c.shards)), replies: make([]*T, len(c.shards))}
	revalidated = make([]bool, len(c.shards))
	errs := c.everyShard(func(si int, _ *member) error {
		var tag string
		if prev != nil {
			tag = prev.tags[si]
		}
		out := new(T)
		etag, notModified, err := c.call(ctx, si, path, body, tag, out)
		if notModified {
			out = prev.replies[si]
		}
		now.tags[si], now.replies[si], revalidated[si] = etag, out, notModified
		return err
	})
	for si, err := range errs {
		if err != nil {
			return nil, nil, shardError(c.shards[si], err)
		}
	}
	var first uint64
	for si, out := range now.replies {
		gen, ok := valid(out)
		if !ok {
			return nil, nil, malformed(c.shards[si])
		}
		if si == 0 {
			first = gen
		} else if gen != first {
			return nil, nil, generationMismatch(c.shards[0].Name, first, c.shards[si].Name, gen)
		}
	}
	// Nothing to keep when no shard tags its replies, and nothing new when
	// every shard revalidated what was kept.
	if keep && slices.ContainsFunc(now.tags, func(t string) bool { return t != "" }) && slices.Contains(revalidated, false) {
		c.kept.Put(key, now)
	}
	return now.replies, revalidated, nil
}
