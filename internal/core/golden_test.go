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
// change to a ladder knob that binds at size (EliminationBudget, which
// moves it halved to 2^18 units or doubled to 2^20; the clause cap; the
// sampler) moves it. The queries run on GOMAXPROCS workers, so
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
	v, queries := atSizeCorpus(t)
	rec := atSizeRecord{Features: v.Build.Features}
	for _, aq := range queries {
		rec.Queries = append(rec.Queries, atSizeRun(t, v, aq.q, aq.opt, aq.class))
	}
	got, want := atSizeCompare(t, atSizeGoldenPath, rec)
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

// atSizeQueryCase is one of the at-size queries with its options.
type atSizeQueryCase struct {
	class string
	q     *graph.Graph
	opt   QueryOptions
}

// atSizeCorpus builds the at-size database — 60 correlated PPI graphs of
// 100–110 vertices, mined with the benchmark ledger's knobs — at the
// current GOMAXPROCS and returns its view and its twelve queries, four of
// each of atSizeClasses. Each test and each -cpu pass builds its own, so
// the record holds the build and the cold engines at every worker count.
func atSizeCorpus(t *testing.T) (*View, []atSizeQueryCase) {
	t.Helper()
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
	var queries []atSizeQueryCase
	for ci, cl := range atSizeClasses {
		rng := rand.New(rand.NewSource(int64(100*ci + cl.edges)))
		for n := 0; n < 4; {
			q := dataset.ExtractQuery(v.Certain[rng.Intn(v.Len())], cl.edges, rng)
			if q.NumEdges() != cl.edges {
				continue
			}
			queries = append(queries, atSizeQueryCase{
				class: fmt.Sprintf("%de δ%d ε%v #%d", cl.edges, cl.delta, cl.epsilon, n),
				q:     q,
				opt: QueryOptions{
					Epsilon: cl.epsilon, Delta: cl.delta, OptBounds: true, Seed: 1,
					Verify: verify.Options{N: 800}, Concurrency: -1,
				},
			})
			n++
		}
	}
	return v, queries
}

// atSizeCompare renders rec as the record at path holds it and returns it
// with that record's bytes. Under PGSNAP_REGEN it writes rec there instead
// and returns it twice.
func atSizeCompare(t *testing.T, path string, rec any) (got, want []byte) {
	t.Helper()
	got, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("PGSNAP_REGEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return got, got
	}
	want, err = os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with PGSNAP_REGEN=1): %v", err)
	}
	return got, want
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

// atSizeOraclePath is the checked-in record of TestAtSizeOracle.
const atSizeOraclePath = "../../testdata/golden/oracle.json"

// oracleBudget is the elimination budget, in the units of
// prob.Engine.ProbNoClause, within which TestAtSizeOracle values a
// sampled candidate exactly: 8 times the ladder's EliminationBudget.
const oracleBudget = 1 << 22

// oracleWindow is how close to ε a sampled estimate must lie for
// TestAtSizeOracle to value its candidate.
const oracleWindow = 0.15

// oracleRecord is what TestAtSizeOracle pins, one entry per at-size query.
type oracleRecord struct {
	Budget  int
	Window  float64
	Queries []oracleQuery
}

// oracleQuery counts the candidates of one query that the ladder sampled
// with an estimate within oracleWindow of ε: Valued of them exactly within
// oracleBudget, OverBudget not. Disagreements lists the valued ones whose
// exact value and estimate lie on opposite sides of ε.
type oracleQuery struct {
	Class         string
	Valued        int
	OverBudget    int
	Disagreements []oracleDisagreement `json:",omitempty"`
}

// oracleDisagreement is one candidate, by global id, that the sampler
// decided otherwise than its exact value would have.
type oracleDisagreement struct {
	Graph    int
	Exact    float64
	Estimate float64
}

// TestAtSizeOracle holds the sampled rung of the verification ladder to
// exact values on a fixed subset: on the at-size golden's corpus and
// queries, every candidate the ladder sampled whose estimate lies within
// oracleWindow of ε is valued by elimination within oracleBudget, and each
// disagreement — a candidate the sampler put on the other side of ε — is
// recorded with both values in testdata/golden/oracle.json.
//
//	PGSNAP_REGEN=1 go test ./internal/core -run '^TestAtSizeOracle$'
//
// rewrites the record; CI regenerates it with the golden and fails on any
// diff.
func TestAtSizeOracle(t *testing.T) {
	if raceEnabled {
		t.Skip("seconds of sampling become minutes under the race runtime; CI runs the oracle in its own step without it")
	}
	v, queries := atSizeCorpus(t)
	rec := oracleRecord{Budget: oracleBudget, Window: oracleWindow}
	for _, aq := range queries {
		p, err := v.newPlan(bg, aq.q, aq.opt, false)
		if err != nil {
			t.Fatal(err)
		}
		eps := p.opt.Epsilon
		out := oracleQuery{Class: aq.class}
		for i, gi := range p.scq {
			o := v.evalCandidate(p, i)
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.samples == 0 || math.Abs(o.ssp-eps) > oracleWindow {
				continue
			}
			d, _, err := v.prepare(p.sets[i], gi, p.opt, eps)
			if err != nil {
				t.Fatal(err)
			}
			exact, ok, err := d.Eliminate(oracleBudget)
			switch {
			case err != nil:
				t.Fatal(err)
			case !ok:
				out.OverBudget++
				continue
			}
			out.Valued++
			if (exact >= eps) != o.answer {
				out.Disagreements = append(out.Disagreements, oracleDisagreement{Graph: v.GID(gi), Exact: exact, Estimate: o.ssp})
			}
		}
		rec.Queries = append(rec.Queries, out)
	}
	got, want := atSizeCompare(t, atSizeOraclePath, rec)
	if !bytes.Equal(got, want) {
		var old oracleRecord
		if err := json.Unmarshal(want, &old); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(old, rec) {
			t.Errorf("oracle drifted:\n got    %+v\n record %+v", rec, old)
		} else {
			t.Error("oracle record is not what this test writes: regenerate it")
		}
	}
}
