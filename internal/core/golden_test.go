package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/verify"
)

// atSizeGoldenPath is the checked-in record of TestAtSizeGolden.
const atSizeGoldenPath = "../../testdata/golden/atsize.json"

// atSizeClasses are the golden's query classes: four queries of each, the
// heavier two of which reach the SMP sampler.
var atSizeClasses = []struct {
	edges, delta int
	epsilon      float64
}{{4, 1, 0.5}, {6, 2, 0.3}, {8, 3, 0.3}}

// atSizeRecord is what the golden pins: the mined vocabulary's size once,
// then one entry per query.
type atSizeRecord struct {
	Features int
	Queries  []atSizeQuery
}

// atSizeQuery is one query's seed-deterministic outcome. Counters holds
// every integer field of Stats by name; the hashes are FNV-1a over the
// answers, the SSP float bits by graph, and the top-k items. ClauseBands[b]
// counts the confirmed candidates whose clause count has bit length b (band
// 0 holds the candidates with no clause), and Capped those whose clause
// search stopped at DefaultMaxClausesPerCandidate.
type atSizeQuery struct {
	Class       string
	Counters    map[string]int
	Answers     string
	SSP         string
	TopK        string
	ClauseBands []int
	Capped      int
}

// TestAtSizeGolden runs fixed queries over the at-size corpus — 60
// correlated PPI graphs of 100–110 vertices — through QueryCtx and
// QueryTopKCtx (k 5), and holds every counter, the answers, the SSP bits,
// the ranking and the clause counts to testdata/golden/atsize.json. It is
// the one test whose queries sample candidates on graphs of this size, so a
// change to a ladder knob that binds at size (eliminationBudget, the clause
// cap, the sampler) moves it. The queries run on GOMAXPROCS workers, so
// `-cpu 1,2,4` holds the counts equal across worker counts.
//
//	PGSNAP_REGEN=1 go test ./internal/core -run '^TestAtSizeGolden$'
//
// rewrites the record after a deliberate change; CI regenerates it and
// fails on any diff.
func TestAtSizeGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds of sampling become minutes under the race runtime; CI runs the golden in its own step without it")
	}
	raw, err := dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: 60, MinVertices: 100, MaxVertices: 110, Organisms: 6, Correlated: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bo := DefaultBuildOptions()
	// The benchmark ledger's mining knobs (bench/corpus.go).
	bo.Feature.Beta, bo.Feature.Alpha, bo.Feature.Gamma, bo.Feature.MaxL = 0.2, 0.1, 0.1, 4
	db, err := NewDatabase(raw.Graphs, bo)
	if err != nil {
		t.Fatal(err)
	}
	v := db.View()
	rec := atSizeRecord{Features: v.Build.Features}
	for ci, cl := range atSizeClasses {
		rng := rand.New(rand.NewSource(int64(100*ci + cl.edges)))
		for n := 0; n < 4; {
			q := dataset.ExtractQuery(v.Certain[rng.Intn(v.Len())], cl.edges, rng)
			if q.NumEdges() != cl.edges {
				continue
			}
			opt := QueryOptions{
				Epsilon: cl.epsilon, Delta: cl.delta, OptBounds: true, Seed: 1,
				Verify: verify.Options{N: 800}, Concurrency: -1,
			}
			rec.Queries = append(rec.Queries, atSizeRun(t, v, q, opt, fmt.Sprintf("%de δ%d ε%v #%d", cl.edges, cl.delta, cl.epsilon, n)))
			n++
		}
	}
	got, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("PGSNAP_REGEN") != "" {
		if err := os.MkdirAll(filepath.Dir(atSizeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(atSizeGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(atSizeGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (regenerate with PGSNAP_REGEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		var old atSizeRecord
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatal(err)
		}
		if old.Features != rec.Features {
			t.Errorf("features: %d, golden %d", rec.Features, old.Features)
		}
		for i := range min(len(old.Queries), len(rec.Queries)) {
			if !reflect.DeepEqual(old.Queries[i], rec.Queries[i]) {
				t.Errorf("query %d:\n got    %+v\n golden %+v", i, rec.Queries[i], old.Queries[i])
			}
		}
		if len(old.Queries) != len(rec.Queries) {
			t.Errorf("%d queries, golden %d", len(rec.Queries), len(old.Queries))
		}
	}
}

// atSizeRun asks q once as a threshold query and once as a top-5 query,
// and records both with the clause counts of the plan's candidates.
func atSizeRun(t *testing.T, v *View, q *graph.Graph, opt QueryOptions, class string) atSizeQuery {
	t.Helper()
	res, err := v.QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	top, err := v.QueryTopKCtx(bg, q, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := v.newPlan(bg, q, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	out := atSizeQuery{Class: class, Counters: map[string]int{}}
	st := reflect.ValueOf(res.Stats)
	for i := range st.NumField() {
		if f := st.Field(i); f.Kind() == reflect.Int {
			out.Counters[st.Type().Field(i).Name] = int(f.Int())
		}
	}
	answers, ssp, ranked := fnv.New64a(), fnv.New64a(), fnv.New64a()
	for _, gi := range res.Answers {
		binary.Write(answers, binary.LittleEndian, int64(gi))
	}
	for _, gi := range p.scq {
		if s, ok := res.SSP[gi]; ok {
			binary.Write(ssp, binary.LittleEndian, [2]uint64{uint64(gi), math.Float64bits(s)})
		}
	}
	for _, it := range top {
		binary.Write(ranked, binary.LittleEndian, [2]uint64{uint64(it.Graph), math.Float64bits(it.SSP)})
	}
	out.Answers = fmt.Sprintf("%016x", answers.Sum64())
	out.SSP = fmt.Sprintf("%016x", ssp.Sum64())
	out.TopK = fmt.Sprintf("%016x", ranked.Sum64())
	for _, sets := range p.sets {
		b := bits.Len(uint(len(sets)))
		for len(out.ClauseBands) <= b {
			out.ClauseBands = append(out.ClauseBands, 0)
		}
		out.ClauseBands[b]++
		if len(sets) == DefaultMaxClausesPerCandidate {
			out.Capped++
		}
	}
	return out
}
