package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/server"
)

// fixture writes a small generated dataset, its snapshot and a one-query
// file, as pggen would.
func fixture(t *testing.T) (dbPath, snapPath, qPath string) {
	t.Helper()
	dir := t.TempDir()
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 10, MinVertices: 6, MaxVertices: 8, Organisms: 3, Correlated: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, encode func(io.Writer) error) string {
		path := filepath.Join(dir, name)
		var buf bytes.Buffer
		if err := encode(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	dbPath = write("db.pgraph", func(w io.Writer) error { return dataset.Save(w, raw) })
	q := dataset.ExtractQuery(raw.Graphs[0].G, 4, rand.New(rand.NewSource(11)))
	qPath = write("q.pgraph", func(w io.Writer) error { return graph.Encode(w, q) })
	db, err := core.NewDatabase(raw.Graphs, core.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	snapPath = filepath.Join(dir, "db.idx")
	if err := db.SaveFile(snapPath, core.SnapshotText); err != nil {
		t.Fatal(err)
	}
	return dbPath, snapPath, qPath
}

// pgsearch runs the command in process.
func pgsearch(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

var timeMS = regexp.MustCompile(`("time_ms": ?)[-0-9.e+]+`)

// untimed blanks every time_ms value: the only bytes two evaluations of
// one query may differ in.
func untimed(s string) string { return timeMS.ReplaceAllString(s, "${1}0") }

// TestOnePath: local mode, -server against a pgserve over the same
// snapshot, -batch and -stream all print the same answers — local -json
// and -server -json byte for byte once time_ms is zeroed.
func TestOnePath(t *testing.T) {
	_, snap, qfile := fixture(t)
	sdb, err := core.OpenSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(sdb, server.Options{}).Handler())
	defer ts.Close()

	knobs := []string{"-qfile", qfile, "-epsilon", "0.3", "-delta", "2", "-seed", "5"}
	outputs := map[string]string{}
	for name, args := range map[string][]string{
		"local":  {"-loadsnap", snap, "-json"},
		"server": {"-server", ts.URL, "-json"},
		"batch":  {"-loadsnap", snap, "-batch", "-json"},
		"stream": {"-loadsnap", snap, "-stream"},
	} {
		code, stdout, stderr := pgsearch(t, append(args, knobs...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr)
		}
		outputs[name] = untimed(stdout)
	}
	if outputs["server"] != outputs["local"] {
		t.Errorf("-server -json differs from local -json:\n%s\n%s", outputs["server"], outputs["local"])
	}
	if outputs["batch"] != outputs["local"] {
		t.Errorf("-batch -json differs from -json:\n%s\n%s", outputs["batch"], outputs["local"])
	}

	var local struct{ Results []queryJSON }
	if err := json.Unmarshal([]byte(outputs["local"]), &local); err != nil {
		t.Fatal(err)
	}
	want := local.Results[0]
	if len(want.Answers) == 0 {
		t.Fatal("the fixture query has no answers: the stream comparison would be vacuous")
	}
	var matches []streamMatchJSON
	var sum streamSummaryJSON
	dec := json.NewDecoder(strings.NewReader(outputs["stream"]))
	for dec.More() {
		var line map[string]json.RawMessage
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(line)
		if _, done := line["done"]; done {
			json.Unmarshal(raw, &sum)
			continue
		}
		var m streamMatchJSON
		json.Unmarshal(raw, &m)
		matches = append(matches, m)
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].Graph < matches[j].Graph })
	var ssp []float64
	for _, m := range matches {
		ssp = append(ssp, m.SSP)
	}
	var wantSSP []float64
	for _, gi := range want.Answers {
		wantSSP = append(wantSSP, want.SSP[gi])
	}
	if !sum.Done || !reflect.DeepEqual(sum.Answers, want.Answers) || !reflect.DeepEqual(ssp, wantSSP) {
		t.Errorf("-stream summary %+v, match SSPs %v; -json answers %v, SSPs %v", sum, ssp, want.Answers, wantSSP)
	}
}

// TestExitCodes: an expired -timeout exits 3 with one stderr line, and a
// bad -verifier exits 2 before any file is opened.
func TestExitCodes(t *testing.T) {
	_, snap, qfile := fixture(t)
	code, _, stderr := pgsearch(t, "-loadsnap", snap, "-qfile", qfile, "-timeout", "1ns", "-json")
	if code != 3 || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "timeout") {
		t.Errorf("-timeout 1ns: exit %d, stderr %q; want 3 and one line naming the timeout", code, stderr)
	}
	if code, _, stderr := pgsearch(t, "-db", "/nonexistent", "-verifier", "bogus"); code != 2 || !strings.Contains(stderr, "bogus") {
		t.Errorf("-verifier bogus: exit %d, stderr %q; want 2", code, stderr)
	}
	if code, _, _ := pgsearch(t, "-loadsnap", snap, "-qfile", "/nonexistent"); code != 1 {
		t.Errorf("missing -qfile: exit %d, want 1", code)
	}
	if code, _, stderr := pgsearch(t, "-loadsnap", snap, "-qfrom", "-1", "-queries", "1"); code != 2 || !strings.Contains(stderr, "-qfrom") {
		t.Errorf("-qfrom -1: exit %d, stderr %q; want 2 naming the flag", code, stderr)
	}
	for _, mode := range [][]string{nil, {"-batch"}, {"-json"}, {"-stream"}} {
		for _, n := range []string{"0", "-2"} {
			args := append([]string{"-loadsnap", snap, "-queries", n}, mode...)
			if code, stdout, stderr := pgsearch(t, args...); code != 2 || stdout != "" || strings.Count(stderr, "\n") != 1 || !strings.Contains(stderr, "-queries") {
				t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing on stdout and one line naming the flag", args, code, stdout, stderr)
			}
		}
	}
	// Extracting no query stays the way to convert a snapshot.
	if code, _, stderr := pgsearch(t, "-loadsnap", snap, "-savesnap", filepath.Join(t.TempDir(), "re.idx"), "-queries", "0"); code != 0 {
		t.Errorf("-savesnap -queries 0: exit %d, stderr %q; want 0", code, stderr)
	}
}

// TestTraceLeavesStdout: -trace writes one span tree per response to
// stderr — rooted at query, batch or stream — and stdout stays what the
// untraced run prints.
func TestTraceLeavesStdout(t *testing.T) {
	db, _, _ := fixture(t)
	knobs := []string{"-db", db, "-queries", "2", "-qsize", "4", "-epsilon", "0.3", "-delta", "2"}
	for _, c := range []struct {
		mode []string
		root string
	}{{[]string{"-json"}, "query"}, {[]string{"-batch", "-json"}, "batch"}, {[]string{"-stream"}, "stream"}} {
		args := append(c.mode, knobs...)
		_, plain, _ := pgsearch(t, args...)
		code, traced, stderr := pgsearch(t, append(args, "-trace")...)
		if code != 0 {
			t.Fatalf("%v -trace: exit %d: %s", c.mode, code, stderr)
		}
		if c.root != "stream" && untimed(traced) != untimed(plain) || c.root == "stream" && sortedLines(untimed(traced)) != sortedLines(untimed(plain)) {
			t.Errorf("%v: -trace changed stdout:\n%s\n%s", c.mode, traced, plain)
		}
		want := 2
		if c.root == "batch" {
			want = 1
		}
		dec := json.NewDecoder(strings.NewReader(stderr))
		n := 0
		for dec.More() {
			var tr struct{ Trace *obs.SpanNode }
			if err := dec.Decode(&tr); err != nil {
				t.Fatalf("%v: stderr %q: %v", c.mode, stderr, err)
			}
			if tr.Trace == nil || tr.Trace.Name != c.root {
				t.Errorf("%v: trace %+v, want root %q", c.mode, tr.Trace, c.root)
			}
			n++
		}
		if n != want {
			t.Errorf("%v: %d traces, want %d", c.mode, n, want)
		}
	}
}

// sortedLines orders NDJSON lines: stream match lines arrive in
// verification order, which is scheduling.
func sortedLines(s string) string {
	lines := strings.Split(s, "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
