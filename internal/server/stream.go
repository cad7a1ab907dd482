package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
)

// streamWriteTimeout is the per-write deadline of /query/stream responses,
// replacing the http.Server's whole-response WriteTimeout (which a long
// stream may legitimately outlive): every match line gets this long to
// reach the client before the connection is reclaimed as dead.
const streamWriteTimeout = 30 * time.Second

// StreamMatchJSON is one /query/stream NDJSON line: a verified answer,
// written (and flushed) the moment the prune+verify stage admitted it.
// SSP carries the verified estimate, or -1 for direct lower-bound accepts
// — exactly the library's Match.
type StreamMatchJSON struct {
	Graph int     `json:"graph"`
	Name  string  `json:"name"`
	SSP   float64 `json:"ssp"`
}

// StreamSummaryJSON is the final /query/stream line. Answers is the
// complete answer set re-sorted ascending — bitwise equal to /query's
// answers field for the same request — so a client that only tails the
// last line still gets the full deterministic result. SSP covers the
// answers only (what the match lines carried); unlike /query's ssp map it
// has no entries for verified candidates that fell below ε. Trace is the
// request's span tree, present only when requested, as on /query.
type StreamSummaryJSON struct {
	Done    bool            `json:"done"`
	Answers []int           `json:"answers"`
	SSP     map[int]float64 `json:"ssp"`
	Count   int             `json:"count"`
	TimeMS  float64         `json:"time_ms"`
	Trace   *obs.SpanNode   `json:"trace,omitempty"`
}

// StreamErrorJSON ends a stream that could not complete. Timeout marks
// deadline expiry and Cancelled plain cancellation (server shutdown with
// the client still attached — or a disconnect, where the line lands
// nowhere, harmlessly): the non-streaming endpoints' structured 504/503,
// folded into the NDJSON protocol — the status line is long gone by then.
type StreamErrorJSON struct {
	Error     string `json:"error"`
	Timeout   bool   `json:"timeout,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
}

// StreamWriter writes one /query/stream response: NDJSON lines, each
// flushed as it is written, and the bookkeeping for the summary line that
// ends a complete stream. It is not safe for concurrent use; a fleet
// backend, which forwards from one goroutine per shard, guards it.
type StreamWriter struct {
	w       http.ResponseWriter
	rc      *http.ResponseController
	failed  bool // a client write failed; everything further is dropped
	answers []int
	ssp     map[int]float64
}

// NewStreamWriter commits w to an NDJSON response.
func NewStreamWriter(w http.ResponseWriter) *StreamWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
	return &StreamWriter{w: w, rc: http.NewResponseController(w), answers: []int{}, ssp: make(map[int]float64)}
}

// line writes one line and flushes it. false means the client is gone.
func (sw *StreamWriter) line(data []byte) bool {
	if sw.failed {
		return false
	}
	// A stream may legitimately outlive the http.Server's blanket
	// WriteTimeout (sized for one-shot responses), so each write gets
	// its own fresh deadline instead: generous enough for any live
	// client, finite so a stuck connection is still reclaimed. Not
	// every ResponseWriter supports per-request deadlines (
	// ErrNotSupported); then the server-wide timeout keeps applying.
	sw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	_, err := sw.w.Write(data)
	if err == nil {
		_, err = io.WriteString(sw.w, "\n")
	}
	if err != nil {
		sw.failed = true
		return false
	}
	// A flush failure means the client is gone; r.Context() is
	// cancelled on disconnect, which ends the evaluation (and every
	// shard stream), so the error itself needs no handling here.
	sw.rc.Flush()
	return true
}

// emit writes v as one line.
func (sw *StreamWriter) emit(v any) bool {
	data, err := json.Marshal(v)
	return err == nil && sw.line(data)
}

// Match writes one match line and records it for the summary. raw, when
// non-nil, is m as another server already encoded it (no newline) and is
// forwarded verbatim. false means the client is gone.
func (sw *StreamWriter) Match(m StreamMatchJSON, raw []byte) bool {
	written := false
	if raw != nil {
		written = sw.line(raw)
	} else {
		written = sw.emit(m)
	}
	if !written {
		return false
	}
	sw.answers = append(sw.answers, m.Graph)
	sw.ssp[m.Graph] = m.SSP
	return true
}

// Fail ends the stream with an in-band error line — the status line is
// long gone — carrying e's message and its timeout/cancelled flags.
func (sw *StreamWriter) Fail(e *Error) {
	sw.emit(StreamErrorJSON{Error: e.Message, Timeout: e.Timeout, Cancelled: e.Cancelled})
}

// Done ends a complete stream with its summary line: every match written,
// re-sorted ascending, and the span tree tr when the request asked for it.
func (sw *StreamWriter) Done(start time.Time, tr *obs.SpanNode) {
	sort.Ints(sw.answers)
	sw.emit(StreamSummaryJSON{
		Done:    true,
		Answers: sw.answers,
		SSP:     sw.ssp,
		Count:   len(sw.answers),
		TimeMS:  float64(time.Since(start).Microseconds()) / 1000,
		Trace:   tr,
	})
}

// streamItem is one element of the evaluation→delivery hand-off queue:
// a resolved match line or the stream's terminal error.
type streamItem struct {
	m   StreamMatchJSON
	err error
}

// streamQueue is the unbounded hand-off between the evaluation goroutine
// and the response writer: pushes never block (the evaluator must never
// wait on a slow client — that is what keeps the inflight slot's hold
// time bounded by evaluation alone), memory grows with the actual
// match count rather than a db.Len()-sized preallocation, and pop blocks
// on a 1-buffered wake-up channel until an item or close arrives.
type streamQueue struct {
	mu     sync.Mutex
	items  []streamItem
	head   int
	closed bool
	wake   chan struct{}
}

func newStreamQueue() *streamQueue {
	return &streamQueue{wake: make(chan struct{}, 1)}
}

func (sq *streamQueue) signal() {
	select {
	case sq.wake <- struct{}{}:
	default:
	}
}

func (sq *streamQueue) push(it streamItem) {
	sq.mu.Lock()
	sq.items = append(sq.items, it)
	sq.mu.Unlock()
	sq.signal()
}

func (sq *streamQueue) close() {
	sq.mu.Lock()
	sq.closed = true
	sq.mu.Unlock()
	sq.signal()
}

// pop returns the next item, or ok=false once the queue is closed and
// drained.
func (sq *streamQueue) pop() (it streamItem, ok bool) {
	for {
		sq.mu.Lock()
		if sq.head < len(sq.items) {
			it = sq.items[sq.head]
			sq.items[sq.head] = streamItem{} // release for GC
			sq.head++
			if sq.head == len(sq.items) {
				sq.items, sq.head = sq.items[:0], 0
			}
			sq.mu.Unlock()
			return it, true
		}
		closed := sq.closed
		sq.mu.Unlock()
		if closed {
			return streamItem{}, false
		}
		<-sq.wake
	}
}

// Stream is /query/stream on a pinned view, with two deliberate
// differences from Query:
//   - The result cache is bypassed entirely. A stream can be abandoned or
//     cancelled halfway, and a partial answer set must never be mistaken
//     for a complete cached result; rather than cache only the happy path
//     the endpoint stays cache-free and leaves caching to /query.
//   - Evaluation and delivery are decoupled. The inflight slot is held by
//     an evaluation goroutine only while the engine runs — the same
//     discipline as /query — and matches flow to the response writer
//     through an unbounded queue whose pushes never block, so the
//     evaluator can never wait on a slow client. A stalled consumer
//     therefore costs a connection (reclaimed by the per-write deadline),
//     never shared state: the query path pins a generation view and holds
//     no lock at all, so /graphs mutations and every other endpoint stay
//     live no matter what a stream's client does.
func (l *local) Stream(ctx context.Context, req *QueryRequest, q *graph.Graph, opt core.QueryOptions, sw *StreamWriter) error {
	ctx, cancel := l.requestContext(ctx, req.TimeoutMS)
	defer cancel()

	// Evaluation goroutine: pins the current generation view, takes an
	// inflight slot, runs the stream, resolves names against that same
	// view (a concurrent mutation cannot disturb it), and releases the
	// slot the moment evaluation ends. The queue absorbs matches without
	// ever blocking the evaluator, so the slot hold is bounded by the
	// evaluation itself (which ctx bounds), never by the client.
	v := l.db.View()
	release := l.acquire()
	queue := newStreamQueue()
	go func() {
		defer queue.close()
		defer release()
		for m, err := range v.QueryStream(ctx, q, l.workers(opt)) {
			if err != nil {
				queue.push(streamItem{err: err})
				return
			}
			// Graph indices leave the server as global ids (GID is the
			// identity off a partition), matching /query's translation.
			queue.push(streamItem{m: StreamMatchJSON{
				Graph: v.GID(m.Graph), Name: v.Graphs[m.Graph].G.Name(), SSP: m.SSP,
			}})
		}
	}()

	for {
		it, ok := queue.pop()
		if !ok {
			return nil
		}
		if it.err != nil {
			// On plain cancellation the client is either gone (the line
			// lands nowhere) or watching a graceful shutdown — then the
			// in-band cancelled marker is its cue to retry elsewhere,
			// mirroring the non-stream endpoints' 503. The line quotes the
			// engine's error as is, unlike the 504/503 bodies.
			e := ErrorFrom("stream failed", it.err)
			e.Message = "stream failed: " + it.err.Error()
			return e
		}
		if !sw.Match(it.m, nil) {
			return nil // the client is gone; the evaluation goroutine finishes on its own, pushes never block
		}
	}
}
