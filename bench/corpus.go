package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/prob"
	"probgraph/internal/verify"
)

// The corpus — database graphs, query pool, mutation pool — is the same on
// every run: it is generated from corpusSeed, not from -seed. A database
// drawn from -seed moves every timing by 15–25 % between seeds (the mined
// feature count alone ranged 63–101), which would drown the regressions the
// ledger exists to show. -seed drives what the program is *asked*: the
// order of operations, the request schedule, the mutation order and every
// QueryOptions.Seed.
const (
	corpusSeed   = 1
	corpusGraphs = 120
	mutationPool = 64
	// smpSamples is the SMP sample count of the in-process workloads. The
	// HTTP API has no knob for it, so serve-* run the server's default.
	smpSamples = 800
	topK       = 5
	batchSize  = 4
	// Key popularity on serve-* follows P(rank r) ∝ (zipfOffset + r)^-zipfExponent.
	// The offset flattens the head — the most popular key gets 5 % of the
	// requests, not 30 % — so that no single query's cost decides a median;
	// the 128 most popular of 512 keys still draw 80 % of the requests.
	zipfExponent = 1.3
	zipfOffset   = 8
	// warmKeys most popular keys are asked once, cached, during set-up.
	warmKeys = 64
)

// queryClass is a group of same-shaped queries asked at one (ε, δ).
type queryClass struct {
	edges, count int
	epsilon      float64
	delta        int
}

// workload describes one set of inputs. The why strings in BENCHMARK.json
// and README.md say what each one is for.
type workload struct {
	name    string
	classes []queryClass
	// shards is 0 for in-process calls, 1 for one pgserve on the full
	// snapshot, 2 for two range shards behind pgproxy.
	shards int
	// seedsPerQuery distinct QueryOptions.Seed values per query give
	// len(queries)×seedsPerQuery request keys: more than the 256-entry
	// result cache holds on serve-fleet, fewer on serve-churn.
	seedsPerQuery int
	// rateRPS is the open-loop arrival rate, fixed at about 0.4× the
	// closed-loop throughput measured when the benchmark was defined.
	rateRPS float64
	// mutateShare of the operations are graph mutations.
	mutateShare float64
}

func (w workload) serve() bool { return w.shards > 0 }

var workloads = []workload{
	{
		name: "engine-verify",
		classes: []queryClass{
			{edges: 4, count: 24, epsilon: 0.5, delta: 1},
			{edges: 4, count: 8, epsilon: 0.3, delta: 2},
		},
		seedsPerQuery: 1,
	},
	{
		name:          "engine-filter",
		classes:       []queryClass{{edges: 10, count: 32, epsilon: 0.5, delta: 2}},
		seedsPerQuery: 1,
	},
	{
		name:          "serve-fleet",
		classes:       []queryClass{{edges: 6, count: 32, epsilon: 0.5, delta: 1}},
		shards:        2,
		seedsPerQuery: 16,
		rateRPS:       fleetRateRPS,
	},
	{
		name:          "serve-churn",
		classes:       []queryClass{{edges: 6, count: 32, epsilon: 0.5, delta: 1}},
		shards:        1,
		seedsPerQuery: 4,
		rateRPS:       churnRateRPS,
		mutateShare:   0.15,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// query is one pool entry with the thresholds it is asked at.
type query struct {
	g       *graph.Graph
	text    string // public text codec, sent as graph_text
	epsilon float64
	delta   int
}

// corpus holds a workload's fixed inputs.
type corpus struct {
	graphs  []*prob.PGraph
	build   core.BuildOptions
	queries []query
	// pool holds held-out graphs for mutations, as decoded from the same
	// text the server is sent, so a mirror applies bit-identical inputs.
	pool     []*prob.PGraph
	poolText []string
}

func buildOptions() core.BuildOptions {
	opt := core.DefaultBuildOptions()
	opt.Feature.Beta, opt.Feature.Alpha, opt.Feature.Gamma, opt.Feature.MaxL = 0.2, 0.1, 0.1, 4
	opt.PMI.Optimize = true
	opt.PMI.Seed = corpusSeed
	return opt
}

func generate(n int, seed int64) (*dataset.DB, error) {
	return dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: n, MinVertices: 12, MaxVertices: 18, Organisms: 8, Correlated: true, Seed: seed,
	})
}

func newCorpus(w workload) (*corpus, error) {
	raw, err := generate(corpusGraphs, corpusSeed)
	if err != nil {
		return nil, err
	}
	c := &corpus{graphs: raw.Graphs, build: buildOptions()}
	for ci, cl := range w.classes {
		rng := rand.New(rand.NewSource(corpusSeed + 7919*int64(ci+1) + int64(cl.edges)))
		for n := 0; n < cl.count; {
			src := raw.Graphs[rng.Intn(len(raw.Graphs))].G
			q := dataset.ExtractQuery(src, cl.edges, rng)
			if q.NumEdges() != cl.edges {
				continue
			}
			var buf bytes.Buffer
			if err := graph.Encode(&buf, q); err != nil {
				return nil, err
			}
			c.queries = append(c.queries, query{g: q, text: buf.String(), epsilon: cl.epsilon, delta: cl.delta})
			n++
		}
	}
	if w.mutateShare > 0 {
		extra, err := generate(mutationPool, corpusSeed+1000)
		if err != nil {
			return nil, err
		}
		for i, pg := range extra.Graphs {
			var buf bytes.Buffer
			if err := dataset.EncodePGraph(&buf, pg, 0); err != nil {
				return nil, err
			}
			dec, _, err := dataset.NewPGraphDecoder(bytes.NewReader(buf.Bytes())).Decode()
			if err != nil {
				return nil, fmt.Errorf("pool graph %d: %w", i, err)
			}
			c.pool = append(c.pool, dec)
			c.poolText = append(c.poolText, buf.String())
		}
	}
	return c, nil
}

// queryOptions maps a request key to engine options. Serve workloads mirror
// pgserve's own mapping (OPT bounds, default SMP sample count) so that an
// in-process call is the reference for the wire answer.
func (w workload) queryOptions(q query, seed int64, workers int) core.QueryOptions {
	opt := core.QueryOptions{
		Epsilon: q.epsilon, Delta: q.delta, OptBounds: true, Seed: seed, Concurrency: workers,
	}
	if !w.serve() {
		opt.Verify = verify.Options{N: smpSamples}
	}
	return opt
}

type opKind int

const (
	opQuery opKind = iota
	opTopK
	opBatch
	opAdd
	opRemove
	opReplace
	numOpKinds
)

var opKindNames = [numOpKinds]string{"query", "topk", "batch", "add", "remove", "replace"}

func (k opKind) String() string { return opKindNames[k] }
func (k opKind) mutation() bool { return k >= opAdd }

// op is one operation of a run. Reads name their query and seed; a batch
// names batchSize queries under one seed; a mutation names a pool graph
// (the slot it removes or replaces is resolved when it executes).
type op struct {
	kind    opKind
	queries []int
	seed    int64
	pool    int
	due     time.Duration // open loop: offset from the phase start
}

// key identifies a read's deterministic outcome at one generation.
func (o op) key() string { return fmt.Sprint(o.kind, o.queries, o.seed) }

// opSource yields a run's operations. Everything it decides comes from the
// run seed, so the same seed gives the same list.
type opSource struct {
	w       workload
	seed    int64
	rng     *rand.Rand
	zipf    *rand.Zipf
	nq      int
	pending []op // engine: rest of the current pass
	muts    int
}

func newOpSource(w workload, nq int, seed int64) *opSource {
	rng := rand.New(rand.NewSource(seed))
	s := &opSource{w: w, seed: seed, rng: rng, nq: nq}
	if w.serve() {
		s.zipf = rand.NewZipf(rng, zipfExponent, zipfOffset, uint64(nq*w.seedsPerQuery-1))
	}
	return s
}

// keySeed is the QueryOptions.Seed of a query's i-th request key.
func (s *opSource) keySeed(i int) int64 { return s.seed*1_000_003 + int64(i)*7919 + 1 }

// keyAt maps a popularity rank to its request key. The r-th most popular key
// asks query r mod nq under its (r div nq)-th seed, on every run: queries
// differ in cost tenfold, and a popularity order drawn from the run seed
// moved serve-* latencies by 20–80 % from seed to seed. What the run seed
// changes is the seed values themselves and the sequence drawn from the law.
func (s *opSource) keyAt(rank int) (q int, seed int64) {
	return rank % s.nq, s.keySeed(rank / s.nq)
}

func (s *opSource) popularKey() (q int, seed int64) { return s.keyAt(int(s.zipf.Uint64())) }

// headKeys returns the n most popular (query, seed) pairs.
func (s *opSource) headKeys(n int) []op {
	out := make([]op, n)
	for r := range out {
		q, seed := s.keyAt(r)
		out[r] = op{kind: opQuery, queries: []int{q}, seed: seed}
	}
	return out
}

func (s *opSource) next() op {
	if !s.w.serve() {
		// In-process: passes that ask every query three times as a
		// threshold query and once as a top-k query, in a fresh random
		// order, so each query is asked equally often whatever number of
		// operations fits into the run. Three to one, because the run
		// length leaves too few samples for a p95 of both.
		if len(s.pending) == 0 {
			for _, i := range s.rng.Perm(4 * s.nq) {
				kind := opQuery
				if i%4 == 3 {
					kind = opTopK
				}
				s.pending = append(s.pending, op{kind: kind, queries: []int{i / 4}, seed: s.keySeed(0)})
			}
		}
		o := s.pending[0]
		s.pending = s.pending[1:]
		return o
	}
	if s.rng.Float64() < s.w.mutateShare {
		// Alternate add and remove, every tenth mutation a replace.
		m := s.muts
		s.muts++
		kind := opAdd
		switch {
		case m%10 == 9:
			kind = opReplace
		case m%2 == 1:
			kind = opRemove
		}
		return op{kind: kind, pool: s.rng.Intn(mutationPool)}
	}
	switch r := s.rng.Float64(); {
	case r < 0.7:
		q, seed := s.popularKey()
		return op{kind: opQuery, queries: []int{q}, seed: seed}
	case r < 0.9:
		q, seed := s.popularKey()
		return op{kind: opTopK, queries: []int{q}, seed: seed}
	default:
		o := op{kind: opBatch}
		_, o.seed = s.popularKey()
		for i := 0; i < batchSize; i++ {
			q, _ := s.popularKey()
			o.queries = append(o.queries, q)
		}
		return o
	}
}

// schedule returns the open-loop operations of a phase: one every 1/rate
// seconds for the given duration.
func (s *opSource) schedule(rate float64, d time.Duration) []op {
	n := int(rate * d.Seconds())
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
		ops[i].due = time.Duration(math.Round(float64(i) / rate * float64(time.Second)))
	}
	return ops
}
