package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public surface, recorded by the
// benchmark itself (the program under test carries no benchmark spans).
// Times are microseconds since the recorder started. Parent is the id of the
// span that caused this one (0 for an op's root); spans of one op share Op.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1000 }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1000 }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, op int, start, end float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// time runs fn inside a span.
func (r *recorder) time(name string, parent, op int, fn func()) int {
	start := r.now()
	fn()
	return r.add(name, parent, op, start, r.now())
}

// ms is the duration of the span with the given id.
func (r *recorder) ms(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].ms()
}

// perCall lists the duration in ms of every span called name.
func (r *recorder) perCall(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// perOp sums, for every op that has one, the durations in ms of its spans
// called name.
func (r *recorder) perOp(name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range r.spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Op]; !seen {
			order = append(order, s.Op)
		}
		sums[s.Op] += s.ms()
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sums[op]
	}
	return out
}

// selfMS is each span's duration minus its children's, summed by span name.
// The children of a call into the program cannot run inside it (the program
// has no benchmark spans), so they are replayed right after their parent
// returns; self time is therefore taken from durations, not from interval
// overlap.
func (r *recorder) selfMS() map[string]float64 {
	child := make(map[int]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.ms()
		}
	}
	self := map[string]float64{}
	for _, s := range r.spans {
		self[s.Name] += s.ms() - child[s.ID]
	}
	return self
}

// write stores the spans and their per-layer self time as JSON.
func (r *recorder) write(path string, meta map[string]any) error {
	out := map[string]any{"meta": meta, "self_ms_by_layer": r.selfMS(), "spans": r.spans}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
