package server

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// FuzzReadStream holds the one NDJSON reader the coordinator and pgsearch
// share to its contract on any input: it never panics and never returns
// (nil, nil); onMatch sees the input's non-empty lines in order, each
// decoding to the match it was handed; and a summary comes back only from
// the line right after those, a "done":true line it decodes. The corpus
// seeds a stream StreamWriter wrote, a copy cut mid-line, and one ended by
// an error line.
func FuzzReadStream(f *testing.F) {
	rec := httptest.NewRecorder()
	sw := NewStreamWriter(rec)
	sw.Match(StreamMatchJSON{Graph: 7, Name: "g7", SSP: -1}, nil)
	sw.Match(StreamMatchJSON{Graph: 3, Name: "g3", SSP: 0.25}, nil)
	sw.Done(time.Now(), nil)
	stream := rec.Body.Bytes()
	f.Add(stream)
	f.Add(stream[:len(stream)/2])

	rec = httptest.NewRecorder()
	sw = NewStreamWriter(rec)
	sw.Match(StreamMatchJSON{Graph: 1, Name: "g1", SSP: 0.5}, nil)
	sw.Fail(&Error{Message: "stream failed: context deadline exceeded", Timeout: true})
	f.Add(rec.Body.Bytes())

	f.Fuzz(func(t *testing.T, input []byte) {
		var matches []StreamMatchJSON
		var raws [][]byte
		sum, err := ReadStream(bytes.NewReader(input), func(m StreamMatchJSON, raw []byte) error {
			matches = append(matches, m)
			raws = append(raws, bytes.Clone(raw))
			return nil
		})
		if (sum == nil) == (err == nil) {
			t.Fatalf("summary %v with error %v: want exactly one", sum, err)
		}
		var lines [][]byte
		for _, l := range bytes.Split(input, []byte("\n")) {
			if l = bytes.TrimSpace(l); len(l) > 0 {
				lines = append(lines, l)
			}
		}
		if len(raws) > len(lines) {
			t.Fatalf("%d match lines from %d lines", len(raws), len(lines))
		}
		for i, raw := range raws {
			if !bytes.Equal(raw, lines[i]) {
				t.Fatalf("match %d is %q, line %d of the input %q", i, raw, i, lines[i])
			}
			var m StreamMatchJSON
			if json.Unmarshal(raw, &m) != nil || m != matches[i] {
				t.Fatalf("match %d: handed %+v for line %q", i, matches[i], raw)
			}
		}
		if sum == nil {
			return
		}
		if len(raws) == len(lines) {
			t.Fatalf("summary %+v with no line left after %d matches", sum, len(raws))
		}
		var want StreamSummaryJSON
		if json.Unmarshal(lines[len(raws)], &want) != nil || !want.Done || !reflect.DeepEqual(sum, &want) {
			t.Fatalf("summary %+v from line %q", sum, lines[len(raws)])
		}
	})
}
