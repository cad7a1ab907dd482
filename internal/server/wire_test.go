package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestErrorRoundTrip: whatever Write puts on the wire, parseError reads
// back unchanged — the writer and the reader are one type.
func TestErrorRoundTrip(t *testing.T) {
	for _, e := range []*Error{
		Errorf(http.StatusBadRequest, "k must be positive"),
		ErrorFrom("query failed", context.DeadlineExceeded),
		ErrorFrom("query failed", fmt.Errorf("wrapped: %w", context.Canceled)),
		ErrorFrom("query failed", errors.New("boom")),
		{Status: http.StatusServiceUnavailable, Shard: "s1", Message: "shard s1 (http://x) unreachable: refused"},
		{Status: http.StatusGatewayTimeout, Shard: "s0", Message: "shard s0: query failed: deadline exceeded", Timeout: true},
	} {
		rec := httptest.NewRecorder()
		e.Write(rec)
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%+v: Content-Type %q", e, ct)
		}
		if got := parseError(rec.Code, rec.Body.Bytes()); !reflect.DeepEqual(got, e) {
			t.Errorf("wrote %+v, read back %+v (body %s)", e, got, rec.Body)
		}
	}
}

func TestErrorFromMapsContextErrors(t *testing.T) {
	cases := []struct {
		err                error
		status             int
		timeout, cancelled bool
		message            string
	}{
		{context.DeadlineExceeded, http.StatusGatewayTimeout, true, false, "x failed: deadline exceeded"},
		{context.Canceled, http.StatusServiceUnavailable, false, true, "x failed: cancelled"},
		{errors.New("bad clause"), http.StatusUnprocessableEntity, false, false, "x failed: bad clause"},
	}
	for _, c := range cases {
		e := ErrorFrom("x failed", c.err)
		if e.Status != c.status || e.Timeout != c.timeout || e.Cancelled != c.cancelled || e.Message != c.message {
			t.Errorf("ErrorFrom(%v) = %+v", c.err, e)
		}
	}
}

// TestParseErrorUnstructuredBody: a non-200 whose body is not the
// envelope keeps its leading text, so the caller can still say something.
func TestParseErrorUnstructuredBody(t *testing.T) {
	if e := parseError(404, []byte("404 page not found\n")); e.Status != 404 || e.Message != "404 page not found" {
		t.Errorf("plain text: %+v", e)
	}
	if e := parseError(500, []byte(`{"shard":"s9"}`)); e.Message != `{"shard":"s9"}` || e.Shard != "" {
		t.Errorf("JSON without an error field: %+v", e)
	}
	if e := parseError(502, nil); e.Message != "Bad Gateway" {
		t.Errorf("empty body: %+v", e)
	}
	if e := parseError(500, []byte(strings.Repeat("x", 4096))); len(e.Message) != 512 {
		t.Errorf("long body: message of %d bytes, want the first 512", len(e.Message))
	}
}

type streamRead struct {
	matches []StreamMatchJSON
	raws    []string
	summary *StreamSummaryJSON
	err     error
}

func readStream(input string) streamRead {
	var got streamRead
	got.summary, got.err = ReadStream(strings.NewReader(input), func(m StreamMatchJSON, raw []byte) error {
		got.matches = append(got.matches, m)
		got.raws = append(got.raws, string(raw))
		return nil
	})
	return got
}

// TestReadStream covers the one NDJSON reader the coordinator and
// pgsearch share. The shapes cannot be told apart by decoding into one
// struct: a match line's ssp is a number, the summary's a map.
func TestReadStream(t *testing.T) {
	const (
		m3  = `{"graph":3,"name":"g3","ssp":0.25}`
		m7  = `{"graph":7,"name":"g7","ssp":-1}`
		sum = `{"done":true,"answers":[3,7],"ssp":{"3":0.25,"7":-1},"count":2,"time_ms":1.5}`
	)
	got := readStream(m7 + "\n\n" + m3 + "\r\n" + sum + "\n" + `{"graph":9}` + "\n")
	if got.err != nil {
		t.Fatal(got.err)
	}
	if want := []StreamMatchJSON{{7, "g7", -1}, {3, "g3", 0.25}}; !reflect.DeepEqual(got.matches, want) {
		t.Errorf("matches %+v, want %+v (arrival order, nothing read past the summary)", got.matches, want)
	}
	if want := []string{m7, m3}; !reflect.DeepEqual(got.raws, want) {
		t.Errorf("raw lines %q, want %q", got.raws, want)
	}
	want := &StreamSummaryJSON{Done: true, Answers: []int{3, 7}, SSP: map[int]float64{3: 0.25, 7: -1}, Count: 2, TimeMS: 1.5}
	if !reflect.DeepEqual(got.summary, want) {
		t.Errorf("summary %+v, want %+v", got.summary, want)
	}
	if got := readStream(sum); got.err != nil || got.summary == nil {
		t.Errorf("summary without a trailing newline: %+v", got)
	}

	failures := []struct {
		name, input string
		status      int
		check       func(*Error) bool
	}{
		{"timeout line", m3 + "\n" + `{"error":"stream failed: context deadline exceeded","timeout":true}` + "\n",
			http.StatusGatewayTimeout, func(e *Error) bool { return e.Timeout && !e.Cancelled && strings.Contains(e.Message, "deadline") }},
		{"cancelled line", `{"error":"stream failed: context canceled","cancelled":true}`,
			http.StatusServiceUnavailable, func(e *Error) bool { return e.Cancelled && !e.Timeout }},
		{"plain error line", `{"error":"stream failed: boom"}` + "\n" + sum,
			http.StatusUnprocessableEntity, func(e *Error) bool { return e.Message == "stream failed: boom" }},
		{"not JSON", m3 + "\n" + "garbage\n" + sum, http.StatusBadGateway, nil},
		{"summary with a number for ssp", `{"done":true,"answers":[3],"ssp":0.25}`, http.StatusBadGateway, nil},
		{"match with a map for ssp", `{"graph":3,"name":"g3","ssp":{"3":0.25}}`, http.StatusBadGateway, nil},
		{"cut mid-line", m3 + "\n" + `{"graph":7,"na`, http.StatusBadGateway, nil},
	}
	for _, c := range failures {
		got := readStream(c.input)
		var e *Error
		if !errors.As(got.err, &e) || e.Status != c.status || got.summary != nil || (c.check != nil && !c.check(e)) {
			t.Errorf("%s: summary %v, err %#v, want a %d *Error", c.name, got.summary, got.err, c.status)
		}
	}

	for name, input := range map[string]string{"matches then EOF": m3 + "\n" + m7 + "\n", "empty": ""} {
		if got := readStream(input); got.summary != nil || !errors.Is(got.err, ErrStreamTruncated) {
			t.Errorf("%s: summary %v, err %v, want ErrStreamTruncated", name, got.summary, got.err)
		}
	}

	stop := errors.New("stop")
	_, err := ReadStream(strings.NewReader(m3+"\n"+sum), func(StreamMatchJSON, []byte) error { return stop })
	if err != stop {
		t.Errorf("callback error came back as %v", err)
	}
}
