package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client speaks the query API to one server — a pgserve or a pgproxy over
// HTTP (NewClient), or a handler in this process (NewHandlerClient). The
// coordinator holds one per shard; pgsearch holds one for its -server
// target, or for the in-process server its local mode runs. Every call
// runs under the caller's context. A call fails with an *Error when the
// server answered and the answer is neither a usable 200 nor, to a
// conditional request, a 304 (its own structured failure, status and flags
// intact, or a 502 for a body that does not decode); any other error means
// the exchange itself failed — the only kind worth retrying.
type Client struct {
	base string
	// The zero-timeout client: per-request contexts carry the deadlines,
	// so a stuck server never wedges the caller.
	hc http.Client
}

// NewClient returns a client for the server at base URL.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/")}
}

// URL returns the base URL requests go to: NewClient's, without a
// trailing slash, or "http://in-process" for a NewHandlerClient.
func (c *Client) URL() string { return c.base }

// NewHandlerClient returns a client whose requests h serves in process.
// No socket is involved, but every request and answer still crosses the
// wire codec, so the client reads exactly the bytes an HTTP client of h
// would.
func NewHandlerClient(h http.Handler) *Client {
	return &Client{base: "http://in-process", hc: http.Client{Transport: handlerTransport{h}}}
}

// handlerTransport is the in-process http.RoundTripper. It serves each
// request through h on a goroutine and returns the body through a pipe,
// so NDJSON lines reach the caller as the handler writes them. The
// handler's r.Context() is the caller's context, also cancelled when the
// caller closes the body (net/http's client disconnect). Once that
// context ends the pipe is closed, so a handler nobody reads from fails
// its next write instead of blocking, and its goroutine ends.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, cancel := context.WithCancel(req.Context())
	pr, pw := io.Pipe()
	w := &pipeResponse{header: make(http.Header), pw: pw, ready: make(chan struct{}),
		resp: &http.Response{Request: req, ContentLength: -1, Body: pipeBody{pr, cancel}}}
	stop := context.AfterFunc(ctx, func() { pr.CloseWithError(ctx.Err()) })
	go func() {
		t.h.ServeHTTP(w, req.WithContext(ctx))
		w.WriteHeader(http.StatusOK) // a handler that wrote nothing answered an empty 200
		stop()                       // what was written stays readable whatever ctx does now
		pw.Close()
		req.Body.Close()
	}()
	select {
	case <-w.ready:
		return w.resp, nil
	case <-ctx.Done():
		cancel()
		return nil, ctx.Err()
	}
}

// pipeResponse is the handler's side of the in-process exchange. Only
// the handler goroutine calls it; ready publishes resp to RoundTrip once
// the status line is set.
type pipeResponse struct {
	header http.Header
	pw     *io.PipeWriter
	resp   *http.Response
	ready  chan struct{}
	wrote  bool
}

func (w *pipeResponse) Header() http.Header { return w.header }

func (w *pipeResponse) WriteHeader(status int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.resp.StatusCode, w.resp.Header = status, w.header.Clone()
	close(w.ready)
}

func (w *pipeResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(p)
}

// pipeBody is the caller's side: closing it ends the handler's context.
type pipeBody struct {
	*io.PipeReader
	cancel context.CancelFunc
}

func (b pipeBody) Close() error {
	b.cancel()
	return b.PipeReader.Close()
}

// ErrStreamTruncated marks a stream that ended (EOF or a mid-body
// transport error) before its summary or error line: the server died
// mid-stream.
var ErrStreamTruncated = errors.New("stream ended before summary")

func undecodable(what string) *Error {
	return &Error{Status: http.StatusBadGateway, Message: "undecodable " + what}
}

// do performs one exchange and returns the response only if it is a 200,
// or a 304 answering the If-None-Match tag it sent (inm, "" for none); any
// other status comes back as the *Error its body describes.
func (c *Client) do(ctx context.Context, method, path string, body []byte, inm string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && (resp.StatusCode != http.StatusNotModified || inm == "") {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, parseError(resp.StatusCode, data)
	}
	return resp, nil
}

// Post sends a JSON body to path and decodes the 200 answer into out.
func (c *Client) Post(ctx context.Context, path string, body []byte, out any) error {
	_, _, err := c.PostIfNoneMatch(ctx, path, body, "", out)
	return err
}

// PostIfNoneMatch is Post made conditional (RFC 9110 §13.1.2). A non-empty
// tag — the ETag of the answer the caller kept for this very path and
// body, since a tag names the server's state and not the request — is sent
// as If-None-Match,
// and a 304 comes back as notModified with out untouched: the kept answer
// is what the server would send now. A 200 is decoded into out and its
// ETag returned ("" when the server tags nothing).
func (c *Client) PostIfNoneMatch(ctx context.Context, path string, body []byte, tag string, out any) (etag string, notModified bool, err error) {
	resp, err := c.do(ctx, http.MethodPost, path, body, tag)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		return tag, true, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return "", false, err
	}
	if json.Unmarshal(data, out) != nil {
		return "", false, undecodable("response")
	}
	return resp.Header.Get("ETag"), false, nil
}

// Get asks path for a 200, discarding the body (the health probes).
func (c *Client) Get(ctx context.Context, path string) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil, "")
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Stream posts a JSON body to an NDJSON endpoint and reads the stream
// with ReadStream. Streams are never retried: delivered lines cannot be
// unsent.
func (c *Client) Stream(ctx context.Context, path string, body []byte, onMatch func(m StreamMatchJSON, raw []byte) error) (*StreamSummaryJSON, error) {
	resp, err := c.do(ctx, http.MethodPost, path, body, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return ReadStream(resp.Body, onMatch)
}

// ReadStream reads one /query/stream response: onMatch is called per
// match line, in arrival order, with the decoded match and the line's raw
// bytes (no newline; valid only during the call), and the terminal
// summary is returned. A stream that does not reach its summary is an
// error: the *Error of its in-band error line (status from the flags,
// like the non-stream endpoints: 504 timeout, 503 cancelled, else 422), a
// 502 *Error for a line that does not decode, onMatch's own error, or
// ErrStreamTruncated when the lines just stop.
func ReadStream(r io.Reader, onMatch func(m StreamMatchJSON, raw []byte) error) (*StreamSummaryJSON, error) {
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if raw := bytes.TrimSpace(line); len(raw) > 0 {
			// Probe the discriminators first. The probe must not declare
			// graph/ssp: a match line's ssp is a number but the summary
			// line's is a map, so those decode per shape in a second step.
			var probe struct {
				Done bool `json:"done"`
				StreamErrorJSON
			}
			if json.Unmarshal(raw, &probe) != nil {
				return nil, undecodable("stream line")
			}
			switch {
			case probe.Error != "":
				e := &Error{Status: http.StatusUnprocessableEntity, Message: probe.Error, Timeout: probe.Timeout, Cancelled: probe.Cancelled}
				if e.Timeout {
					e.Status = http.StatusGatewayTimeout
				} else if e.Cancelled {
					e.Status = http.StatusServiceUnavailable
				}
				return nil, e
			case probe.Done:
				sum := &StreamSummaryJSON{}
				if json.Unmarshal(raw, sum) != nil {
					return nil, undecodable("stream line")
				}
				return sum, nil
			default:
				var m StreamMatchJSON
				if json.Unmarshal(raw, &m) != nil {
					return nil, undecodable("stream line")
				}
				if err := onMatch(m, raw); err != nil {
					return nil, err
				}
			}
		}
		if rerr != nil {
			return nil, fmt.Errorf("%w: %v", ErrStreamTruncated, rerr)
		}
	}
}
