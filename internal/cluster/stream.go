package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// handleQueryStream is POST /query/stream, distributed: one NDJSON
// stream per shard, match lines forwarded to the client verbatim as they
// arrive (they already carry global ids), then one merged summary line.
// Match arrival order interleaves across shards — exactly as it already
// interleaves across workers on a single node — while the summary
// (sorted answers, SSP map, count) is bitwise the single-node summary,
// because the shards' match sets partition the single node's.
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
func (c *Coordinator) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if _, _, ok := server.Accept(w, r, &req, req.CheckStream); !ok {
		return
	}
	c.mx.queries["stream"].Inc()
	body, err := json.Marshal(&req)
	if err != nil {
		server.Errorf(http.StatusInternalServerError, "%v", err).Write(w)
		return
	}
	start := time.Now()
	sctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	fan := &streamFan{sw: server.NewStreamWriter(w), cancel: cancel}

	var wg sync.WaitGroup
	for si := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.streamShard(sctx, si, body, fan)
		}()
	}
	wg.Wait()

	switch {
	case fan.failure != nil:
		fan.sw.Fail(fan.failure)
	case r.Context().Err() != nil:
		// Shutdown with the client still attached: the shard streams were
		// cut by our own context, which streamShard does not count as a
		// shard failure — but what was forwarded is partial all the same.
		fan.sw.Fail(server.ErrorFrom("stream failed", r.Context().Err()))
	default:
		fan.sw.Done(start)
	}
}

// streamFan is the mutex-guarded client side of the fan-in: shard
// goroutines forward lines through it one at a time, and the first shard
// to fail records its structured error and cancels every sibling stream
// (whose own cancellation-induced endings are then not recorded over it).
type streamFan struct {
	mu      sync.Mutex
	sw      *server.StreamWriter
	failure *server.Error
	cancel  context.CancelFunc
}

var errClientGone = errors.New("client gone")

func (f *streamFan) forward(m server.StreamMatchJSON, raw []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
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
// error line, undecodable line, or a stream that ends without a summary —
// aborts the whole fan-in with a structured error naming the shard.
func (c *Coordinator) streamShard(ctx context.Context, si int, body []byte, fan *streamFan) {
	sh := c.shards[si]
	sp := obs.SpanFrom(ctx).Child("shard:" + sh.Name + "/query/stream")
	defer sp.End()
	start := time.Now()
	_, err := c.clients[si].Stream(ctx, "/query/stream", body, fan.forward)
	if err == errClientGone {
		err = nil // the shard did nothing wrong
	}
	c.record(sh, start, err)
	// Once the context is done the ending is the coordinator's doing (a
	// sibling's abort, or the client going away), not this shard's failure.
	if err != nil && ctx.Err() == nil {
		fan.abort(shardError(sh, err))
	}
}
