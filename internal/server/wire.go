package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"probgraph/internal/core"
	"probgraph/internal/graph"
)

// This file is the wire envelope every speaker of the query API shares —
// this package's handlers, the fleet backend in internal/cluster, and
// the Client in client.go: how a failure is written and read back, how a
// success is written, and the request prologue (decode, validate).

// Error is the one failure of the wire: the JSON body of every non-200
// answer, and what a client gets back from one (or from the error line
// that ends a failed NDJSON stream). Shard names the fleet member a
// coordinator failure is about; Timeout marks deadline expiry (504) and
// Cancelled plain cancellation (503).
type Error struct {
	Status    int    `json:"-"`
	Message   string `json:"error"`
	Shard     string `json:"shard,omitempty"`
	Timeout   bool   `json:"timeout,omitempty"`
	Cancelled bool   `json:"cancelled,omitempty"`
}

func (e *Error) Error() string { return e.Message }

// Errorf builds a plain failure with the given status.
func Errorf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Message: fmt.Sprintf(format, args...)}
}

// Write answers the request with e.
func (e *Error) Write(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(e)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	Errorf(status, format, args...).Write(w)
}

// ErrorFrom maps a backend failure to the wire. An *Error — a failure
// already in wire form, such as a fleet's shard error — passes through.
// Deadline expiry is a structured 504 with "timeout": true — the client
// gets a parseable verdict, not a hung or reset connection. Plain
// cancellation means the request context died: either the client
// disconnected (the 503 lands nowhere, harmlessly) or the server is
// shutting down with the client still attached — then the 503 tells it
// to retry elsewhere. Everything else is an evaluation failure (422).
func ErrorFrom(what string, err error) *Error {
	var e *Error
	switch {
	case errors.As(err, &e):
		return e
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Status: http.StatusGatewayTimeout, Message: what + ": deadline exceeded", Timeout: true}
	case errors.Is(err, context.Canceled):
		return &Error{Status: http.StatusServiceUnavailable, Message: what + ": cancelled", Cancelled: true}
	}
	return Errorf(http.StatusUnprocessableEntity, "%s: %v", what, err)
}

// parseError reads a non-200 answer back into an Error. A body that is
// not the envelope (a proxy's HTML, net/http's plain-text 404) keeps its
// leading text as the message.
func parseError(status int, body []byte) *Error {
	e := &Error{}
	if json.Unmarshal(body, e) != nil || e.Message == "" {
		*e = Error{Message: strings.TrimSpace(string(body[:min(len(body), 512)]))}
		if e.Message == "" {
			e.Message = http.StatusText(status)
		}
	}
	e.Status = status
	return e
}

// WriteJSON answers the request with v and status 200.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decodeBody parses a JSON request body, enforcing POST for mux patterns
// that are not method-qualified. On failure the 405/400 is written and
// the result is false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	return decodeJSONBody(w, r, v)
}

func decodeJSONBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	// Drain to EOF: net/http arms its client-disconnect detection (which
	// cancels r.Context()) only once the body is fully consumed, and
	// Decode stops after the first JSON value.
	io.Copy(io.Discard, r.Body)
	return true
}

// Accept is the request prologue of every query endpoint: decode the body
// into req (405/400), then run check — the Check method of req that fits
// the endpoint — which validates every knob and derives the parsed query
// (or batch members) and the engine options (400). The handlers run it
// before calling any Backend, so a malformed request is rejected
// identically, and before any evaluation or fan-out, by pgserve and
// pgproxy alike. On failure the answer is written and ok is false.
func Accept[Q any](w http.ResponseWriter, r *http.Request, req any, check func() (Q, core.QueryOptions, error)) (q Q, opt core.QueryOptions, ok bool) {
	if !decodeBody(w, r, req) {
		return q, opt, false
	}
	q, opt, err := check()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return q, opt, false
	}
	return q, opt, true
}

// Check validates every result-affecting knob of the request — the query
// graph parses, the verifier is known, ε/δ are in range, timeout_ms is
// non-negative — and derives the parsed query and the engine options.
// It is the whole bad-request path (400) of /query; whatever fails later
// is an evaluation failure (422).
func (req *QueryRequest) Check() (*graph.Graph, core.QueryOptions, error) {
	q, err := parseGraphPayload(req.Graph, req.GraphText)
	if err != nil {
		return nil, core.QueryOptions{}, err
	}
	opt, err := checkOptions(req.Epsilon, req.Delta, req.Verifier, req.Plain, req.Seed, req.Workers, req.TimeoutMS)
	return q, opt, err
}

// CheckTopK is Check for /topk and /topk/walk, which need a positive k.
func (req *QueryRequest) CheckTopK() (*graph.Graph, core.QueryOptions, error) {
	if req.K <= 0 {
		return nil, core.QueryOptions{}, errors.New("k must be positive")
	}
	return req.Check()
}

// CheckStream is Check for /query/stream, which has no ranked variant.
func (req *QueryRequest) CheckStream() (*graph.Graph, core.QueryOptions, error) {
	if req.K != 0 {
		return nil, core.QueryOptions{}, errors.New("k is not supported on /query/stream")
	}
	return req.Check()
}

// Check validates a /batch request (either queries or query_texts, at
// least one member, every member parses, options in range) and derives
// the parsed members, in request order, and the engine options.
func (req *BatchRequest) Check() ([]*graph.Graph, core.QueryOptions, error) {
	if len(req.Queries) > 0 && len(req.QueryTexts) > 0 {
		return nil, core.QueryOptions{}, errors.New("give either queries or query_texts, not both")
	}
	var qs []*graph.Graph
	for i := range req.Queries {
		q, err := GraphFromJSON(&req.Queries[i])
		if err != nil {
			return nil, core.QueryOptions{}, fmt.Errorf("query %d: %v", i, err)
		}
		qs = append(qs, q)
	}
	for i, text := range req.QueryTexts {
		q, err := parseGraphPayload(nil, text)
		if err != nil {
			return nil, core.QueryOptions{}, fmt.Errorf("query %d: %v", i, err)
		}
		qs = append(qs, q)
	}
	if len(qs) == 0 {
		return nil, core.QueryOptions{}, errors.New("empty batch")
	}
	opt, err := checkOptions(req.Epsilon, req.Delta, req.Verifier, req.Plain, req.Seed, req.Workers, req.TimeoutMS)
	return qs, opt, err
}

func verifierKind(name string) (core.VerifierKind, error) {
	switch name {
	case "", "smp":
		return core.VerifierSMP, nil
	case "exact":
		return core.VerifierExact, nil
	case "none":
		return core.VerifierNone, nil
	default:
		return 0, fmt.Errorf("unknown verifier %q (want smp, exact, or none)", name)
	}
}

// checkOptions validates the knobs QueryRequest and BatchRequest share
// and translates them to engine options. Everything result-affecting
// comes from the request; workers rides along as Concurrency, 0 meaning
// the evaluating server's default. Out-of-range ε/δ and a negative
// timeout_ms (0 means "use the server default") are malformed requests —
// HTTP 400, matching the CLI flags — not evaluation failures (422), on
// every query endpoint, /query/stream included.
func checkOptions(epsilon float64, delta int, verifier string, plain bool, seed int64, workers int, timeoutMS int64) (core.QueryOptions, error) {
	vk, err := verifierKind(verifier)
	if err != nil {
		return core.QueryOptions{}, err
	}
	opt := core.QueryOptions{
		Epsilon:     epsilon,
		Delta:       delta,
		OptBounds:   !plain,
		Verifier:    vk,
		Seed:        seed,
		Concurrency: workers,
	}
	if err := opt.Validate(); err != nil {
		return core.QueryOptions{}, err
	}
	if timeoutMS < 0 {
		return core.QueryOptions{}, fmt.Errorf("timeout_ms must be >= 0, got %d", timeoutMS)
	}
	return opt, nil
}
