package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// Stream is /query/stream over the fleet: one NDJSON stream per shard,
// match lines forwarded to the client verbatim as they arrive (they
// already carry global ids); the handler then writes the summary line,
// re-derived from what was forwarded. Match arrival order interleaves
// across shards — exactly as it already interleaves across workers on a
// single node — while the summary (sorted answers, SSP map, count) is
// bitwise the single-node summary, because the shards' match sets
// partition the single node's. A global id a second shard streams too —
// two shards serving overlapping ranges — is refused like /query refuses
// it, never recorded twice.
//
// A shard failing mid-stream aborts every other shard stream and ends
// the output with an in-band error line naming the shard — the stream
// never just stops as if complete, and neither does one cut short by the
// request's own cancellation. ShardTimeout deliberately does not bound
// shard streams (a legitimate stream outlives any per-attempt budget);
// the client's timeout_ms travels in the body and bounds each shard's
// evaluation, and client disconnect cancels everything through the
// request context. Streams are never retried: forwarded lines cannot be
// unsent.
func (c *Coordinator) Stream(ctx context.Context, req *server.QueryRequest, _ *graph.Graph, _ core.QueryOptions, sw *server.StreamWriter) error {
	body, err := json.Marshal(req)
	if err != nil {
		return server.Errorf(http.StatusInternalServerError, "%v", err)
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	fan := &streamFan{sw: sw, cancel: cancel, seen: make(map[int]bool)}
	c.everyShard(func(_ int, m *member) error {
		streamShard(sctx, m, body, fan)
		return nil
	})

	switch {
	case fan.failure != nil:
		return fan.failure
	case ctx.Err() != nil:
		// Shutdown with the client still attached: the shard streams were
		// cut by our own context, which streamShard does not count as a
		// shard failure — but what was forwarded is partial all the same.
		return server.ErrorFrom("stream failed", ctx.Err())
	}
	return nil
}

// streamFan is the mutex-guarded client side of the fan-in: shard
// goroutines forward lines through it one at a time, and the first shard
// to fail records its structured error and cancels every sibling stream
// (whose own cancellation-induced endings are then not recorded over it).
type streamFan struct {
	mu      sync.Mutex
	sw      *server.StreamWriter
	seen    map[int]bool // global ids forwarded so far
	failure *server.Error
	cancel  context.CancelFunc
}

var (
	errClientGone = errors.New("client gone")
	errOverlap    = errors.New("global id streamed by two shards")
)

func (f *streamFan) forward(m server.StreamMatchJSON, raw []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[m.Graph] {
		return errOverlap
	}
	f.seen[m.Graph] = true
	if !f.sw.Match(m, raw) {
		return errClientGone // the request context cancels the fleet
	}
	return nil
}

func (f *streamFan) abort(e *server.Error) {
	f.mu.Lock()
	if f.failure == nil {
		f.failure = e
	}
	f.mu.Unlock()
	f.cancel()
}

// streamShard runs one shard's /query/stream, forwarding its match lines
// until the shard's summary arrives (the merged summary is re-derived
// from what was forwarded). Any failure — unreachable, non-200, in-band
// error line, undecodable line, a stream that ends without a summary, or
// a global id another shard already streamed — aborts the whole fan-in
// with a structured error naming the shard.
func streamShard(ctx context.Context, m *member, body []byte, fan *streamFan) {
	obs.Stage(ctx, "shard:"+m.Name+"/query/stream", func(ctx context.Context) (int64, error) {
		start := time.Now()
		_, err := m.Client.Stream(ctx, "/query/stream", body, fan.forward)
		switch err {
		case errClientGone:
			err = nil // the shard did nothing wrong
		case errOverlap:
			m.finish(ctx, start, nil) // the exchange worked; its content cannot be merged
			fan.abort(malformed(m))
			return 0, nil
		}
		m.finish(ctx, start, err)
		// Once the context is done the ending is the coordinator's doing (a
		// sibling's abort, or the client going away), not this shard's
		// failure.
		if err != nil && ctx.Err() == nil {
			fan.abort(shardError(m, err))
		}
		return 0, nil
	})
}
