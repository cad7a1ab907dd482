package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// zeroTimes blanks every time_ms / time_*_ms value: the only bytes two
// evaluations of one request may differ in.
var zeroTimes = regexp.MustCompile(`"time(_[a-z]+)?_ms":[-0-9.e+]+`)

func zeroed(b []byte) string { return zeroTimes.ReplaceAllString(string(b), `"time_ms":0`) }

// TestHandlerClientMatchesHTTP: the in-process client reads what an HTTP
// client of the same handler reads — Post bodies, Get outcomes, stream
// lines and summaries byte for byte (time fields aside), and failures as
// *Error with their status and message.
func TestHandlerClientMatchesHTTP(t *testing.T) {
	env := newTestEnv(t, Options{CacheSize: -1})
	mux := http.NewServeMux()
	mux.Handle("/", env.srv.Handler())
	mux.HandleFunc("/fail", func(w http.ResponseWriter, r *http.Request) {
		ErrorFrom("x failed", errors.New("bad clause")).Write(w)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	clients := []*Client{NewClient(ts.URL), NewHandlerClient(mux)}
	ctx := context.Background()

	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, p := range []struct {
		path string
		body []byte
	}{
		{"/query", body(QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.4, Delta: 1, Seed: 3})},
		{"/topk", body(QueryRequest{GraphText: env.qtexts[1], Delta: 1, K: 2, Seed: 3})},
		{"/batch", body(BatchRequest{QueryTexts: env.qtexts, Epsilon: 0.4, Delta: 1, Seed: 3})},
	} {
		var got [2]json.RawMessage
		for i, c := range clients {
			if err := c.Post(ctx, p.path, p.body, &got[i]); err != nil {
				t.Fatalf("%s via client %d: %v", p.path, i, err)
			}
		}
		if zeroed(got[0]) != zeroed(got[1]) {
			t.Errorf("%s: HTTP %s\nin-process %s", p.path, got[0], got[1])
		}
	}

	// Streams: the same match lines in the same order (workers 1), the same
	// summary.
	sreq := body(QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.3, Delta: 4, Seed: 3, Workers: 1})
	var lines [2][]string
	var sums [2]string
	for i, c := range clients {
		sum, err := c.Stream(ctx, "/query/stream", sreq, func(_ StreamMatchJSON, raw []byte) error {
			lines[i] = append(lines[i], string(raw))
			return nil
		})
		if err != nil {
			t.Fatalf("stream via client %d: %v", i, err)
		}
		sums[i] = zeroed(body(sum))
	}
	if len(lines[0]) == 0 || strings.Join(lines[0], "\n") != strings.Join(lines[1], "\n") || sums[0] != sums[1] {
		t.Errorf("streams differ:\nHTTP %v %s\nin-process %v %s", lines[0], sums[0], lines[1], sums[1])
	}

	// Failures, each with its status and message intact.
	for _, f := range []struct {
		method, path string
		body         []byte
		status       int
	}{
		{"POST", "/query", []byte(`{"bogus":1}`), http.StatusBadRequest},
		{"POST", "/nope", nil, http.StatusNotFound},
		{"GET", "/nope", nil, http.StatusNotFound},
		{"POST", "/fail", nil, http.StatusUnprocessableEntity},
		{"POST", "/query/stream", []byte(`{"delta":-1}`), http.StatusBadRequest},
	} {
		var errs [2]*Error
		for i, c := range clients {
			var err error
			switch {
			case f.method == "GET":
				err = c.Get(ctx, f.path)
			case f.path == "/query/stream":
				_, err = c.Stream(ctx, f.path, f.body, func(StreamMatchJSON, []byte) error { return nil })
			default:
				err = c.Post(ctx, f.path, f.body, &json.RawMessage{})
			}
			if !errors.As(err, &errs[i]) {
				t.Fatalf("%s %s via client %d: %v, want *Error", f.method, f.path, i, err)
			}
		}
		if errs[0].Status != f.status || *errs[0] != *errs[1] {
			t.Errorf("%s %s: HTTP %+v, in-process %+v, want status %d", f.method, f.path, errs[0], errs[1], f.status)
		}
	}
	for i, c := range clients {
		if err := c.Get(ctx, "/healthz"); err != nil {
			t.Errorf("GET /healthz via client %d: %v", i, err)
		}
	}
}

// TestHandlerClientReleasesHandler: a caller that stops reading — by
// cancelling its context mid-stream or by closing the body after the
// first match — gets its call back at once, and the handler's goroutine
// ends: its context is cancelled and its writes fail instead of blocking.
// endless never stops on its own; the real server's stream must end too.
func TestHandlerClientReleasesHandler(t *testing.T) {
	env := newTestEnv(t, Options{})
	endless := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := NewStreamWriter(w)
		for i := 0; r.Context().Err() == nil && sw.Match(StreamMatchJSON{Graph: i}, nil); i++ {
		}
	})
	sreq, err := json.Marshal(QueryRequest{GraphText: env.qtexts[0], Epsilon: 0.3, Delta: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	errStop := errors.New("stop")
	baseline := runtime.NumGoroutine()
	for _, h := range []struct {
		name string
		h    http.Handler
	}{{"endless", endless}, {"server", env.srv.Handler()}} {
		for _, by := range []string{"cancel", "close"} {
			ctx, cancel := context.WithCancel(context.Background())
			start := time.Now()
			_, err := NewHandlerClient(h.h).Stream(ctx, "/query/stream", sreq, func(StreamMatchJSON, []byte) error {
				if by == "close" {
					return errStop // Stream closes the body on its way out
				}
				cancel()
				return nil
			})
			cancel()
			// The server's short stream may legitimately finish before
			// the cancellation lands; endless cannot.
			if by == "close" && !errors.Is(err, errStop) || h.name == "endless" && err == nil {
				t.Errorf("%s, %s after the first match: err = %v", h.name, by, err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("%s, %s: returned after %v", h.name, by, d)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
	}
}
