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

// Client speaks the query API to one server — a pgserve or a pgproxy. The
// coordinator holds one per shard and pgsearch -server one for its target.
// Every call runs under the caller's context. A call fails with an *Error
// when the server answered and the answer is not a usable 200 (its own
// structured failure, status and flags intact, or a 502 for a body that
// does not decode); any other error means the exchange itself failed —
// the only kind worth retrying.
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

// ErrStreamTruncated marks a stream that ended (EOF or a mid-body
// transport error) before its summary or error line: the server died
// mid-stream.
var ErrStreamTruncated = errors.New("stream ended before summary")

func undecodable(what string) *Error {
	return &Error{Status: http.StatusBadGateway, Message: "undecodable " + what}
}

// do performs one exchange and returns the response only if it is a 200;
// any other status comes back as the *Error its body describes.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		return nil, parseError(resp.StatusCode, data)
	}
	return resp, nil
}

// Post sends a JSON body to path and decodes the 200 answer into out.
func (c *Client) Post(ctx context.Context, path string, body []byte, out any) error {
	resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return err
	}
	if json.Unmarshal(data, out) != nil {
		return undecodable("response")
	}
	return nil
}

// Get asks path for a 200, discarding the body (the health probes).
func (c *Client) Get(ctx context.Context, path string) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Stream posts a JSON body to an NDJSON endpoint and reads the stream
// with ReadStream. Streams are never retried: delivered lines cannot be
// unsent.
func (c *Client) Stream(ctx context.Context, path string, body []byte, onMatch func(m StreamMatchJSON, raw []byte) error) (*StreamSummaryJSON, error) {
	resp, err := c.do(ctx, http.MethodPost, path, body)
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
