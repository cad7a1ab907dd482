// Package experiments reproduces the figures of the paper's evaluation
// (§6, Figures 9–14, except Figure 11: it compared the paper's two index
// builds, SIPBound and OPT-SIPBound, and the index now stores exact cells —
// README's reproduction notes record what the paper's bounds cost against
// them). Each FigXX method runs the corresponding sweep and
// returns a rendered table whose series mirror the paper's plots; the
// cmd/pgbench binary prints them and the repository-root benchmarks wrap
// them in testing.B harnesses.
//
// Absolute numbers differ from the paper (different hardware, Go instead of
// VC++ 6.0, synthetic data at reduced scale); the reproduction targets are
// the curve shapes — who wins, by what rough factor, where the crossovers
// fall. README's reproduction notes say where a figure departs from the
// paper and why.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/prob"
	"probgraph/internal/stats"
	"probgraph/internal/verify"
)

// bg is the context of every query the suite issues: the sweeps run to
// completion and nothing cancels them.
var bg = context.Background()

// Config scales the experiment suite.
type Config struct {
	// Scale is "tiny" (CI/bench default), "small" (pgbench default) or
	// "full" (longer sweep).
	Scale string
	// Seed fixes all randomness.
	Seed int64
	// Workers bounds the per-query candidate worker pool (0/1 serial,
	// negative GOMAXPROCS). Results are identical at any setting; only
	// timings change.
	Workers int
}

type preset struct {
	numGraphs        int
	minV, maxV       int
	organisms        int
	querySizes       []int
	queriesPerSize   int
	defaultQuerySize int
	defaultDelta     int
	defaultEpsilon   float64
	epsilons         []float64
	dbSizes          []int
	exactSizeLimit   int // largest DB size the Exact baseline runs at
	verifyN          int
}

func presetFor(scale string) preset {
	switch scale {
	case "full":
		return preset{
			numGraphs: 400, minV: 12, maxV: 18, organisms: 8,
			querySizes: []int{4, 6, 8, 10, 12}, queriesPerSize: 8,
			defaultQuerySize: 8, defaultDelta: 2, defaultEpsilon: 0.5,
			epsilons: []float64{0.3, 0.4, 0.5, 0.6, 0.7},
			dbSizes:  []int{100, 200, 400, 800}, exactSizeLimit: 100,
			verifyN: 1476,
		}
	case "small":
		return preset{
			numGraphs: 120, minV: 9, maxV: 13, organisms: 6,
			querySizes: []int{3, 4, 6, 8}, queriesPerSize: 5,
			defaultQuerySize: 4, defaultDelta: 1, defaultEpsilon: 0.5,
			epsilons: []float64{0.3, 0.4, 0.5, 0.6, 0.7},
			dbSizes:  []int{40, 80, 160, 320}, exactSizeLimit: 40,
			verifyN: 800,
		}
	default: // tiny
		return preset{
			numGraphs: 24, minV: 7, maxV: 9, organisms: 4,
			querySizes: []int{3, 4, 5}, queriesPerSize: 3,
			defaultQuerySize: 4, defaultDelta: 1, defaultEpsilon: 0.5,
			epsilons: []float64{0.3, 0.5, 0.7},
			dbSizes:  []int{12, 24, 48}, exactSizeLimit: 24,
			verifyN: 400,
		}
	}
}

// Env holds the shared databases and query workload for one suite run.
type Env struct {
	Cfg Config
	P   preset

	Raw *dataset.DB
	DB  *core.Database // COR model, the library's index

	// Queries[size] holds extracted connected query graphs.
	Queries map[int][]*graph.Graph
}

// NewEnv generates data and builds the indexes.
func NewEnv(cfg Config) (*Env, error) {
	p := presetFor(cfg.Scale)
	e := &Env{Cfg: cfg, P: p, Queries: map[int][]*graph.Graph{}}
	var err error
	e.Raw, err = dataset.GeneratePPI(dataset.PPIOptions{
		NumGraphs: p.numGraphs, MinVertices: p.minV, MaxVertices: p.maxV,
		Organisms: p.organisms, Correlated: true, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	e.DB, err = core.NewDatabase(e.Raw.Graphs, buildOpt())
	if err != nil {
		return nil, err
	}
	found := false
	for _, s := range p.querySizes {
		if s == p.defaultQuerySize {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("experiments: defaultQuerySize %d not in querySizes %v", p.defaultQuerySize, p.querySizes)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for _, size := range p.querySizes {
		for i := 0; i < p.queriesPerSize; i++ {
			src := e.Raw.Graphs[rng.Intn(len(e.Raw.Graphs))].G
			q := dataset.ExtractQuery(src, size, rng)
			if q.NumEdges() == size {
				e.Queries[size] = append(e.Queries[size], q)
			}
		}
		if len(e.Queries[size]) == 0 {
			q := dataset.ExtractQuery(e.Raw.Graphs[0].G, size, rng)
			e.Queries[size] = append(e.Queries[size], q)
		}
	}
	return e, nil
}

// buildOpt is the figures' index: the library's defaults with the
// figures' mining thresholds.
func buildOpt() core.BuildOptions {
	opt := core.DefaultBuildOptions()
	opt.Feature.Beta = 0.2
	opt.Feature.Alpha = 0.1
	opt.Feature.Gamma = 0.1
	opt.Feature.MaxL = 4
	return opt
}

// defaultQO returns the default query configuration (OPT everything, SMP).
func (e *Env) defaultQO(seed int64) core.QueryOptions {
	return core.QueryOptions{
		Epsilon:     e.P.defaultEpsilon,
		Delta:       e.P.defaultDelta,
		OptBounds:   true,
		Verifier:    core.VerifierSMP,
		Verify:      verify.Options{N: e.P.verifyN},
		Seed:        seed,
		Concurrency: e.Cfg.Workers,
	}
}

// verificationCandidates returns, for a query, the graphs that reach the
// verification phase under the default pipeline (shared by 9a/9b).
func (e *Env) verificationCandidates(q *graph.Graph, seed int64) ([]int, error) {
	qo := e.defaultQO(seed)
	qo.Verifier = core.VerifierNone
	res, err := e.DB.View().QueryCtx(bg, q, qo)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, gi := range res.Answers {
		if res.SSP[gi] != -1 { // exclude direct accepts
			out = append(out, gi)
		}
	}
	return out, nil
}

// candidateDNF collects the Equation 22 DNF of q at distance delta in
// graph gi with its engine, from the enumeration core's VerifySSP reads
// (iso.EdgeSetsWithin, under core's default per-candidate cap). The figures
// that reproduce the paper's SMP and Exact curves run verify.SMP and
// verify.Exact — Algorithm 5 and Equation 21 as published — on it:
// View.VerifySSP is this repository's ladder, which decides most candidates
// without sampling and would flatten both curves.
func candidateDNF(v *core.View, q *graph.Graph, delta, gi int) (*prob.Engine, []graph.EdgeSet, error) {
	clauses := iso.EdgeSetsWithin(q, v.Certain[gi], delta, core.DefaultMaxClausesPerCandidate)
	eng, err := v.Engine(gi)
	return eng, clauses, err
}

// paperSMP is the paper's verifier for one candidate: collect the DNF, run
// Algorithm 5 on it with the candidate's own seed.
func paperSMP(v *core.View, q *graph.Graph, gi int, qo core.QueryOptions) (float64, error) {
	eng, clauses, err := candidateDNF(v, q, qo.Delta, gi)
	if err != nil {
		return 0, err
	}
	vo := qo.Verify
	vo.Seed = qo.Seed + int64(gi)
	return verify.SMP(eng, clauses, vo)
}

// paperExact is the Equation 21 baseline for one candidate, refusing DNFs
// beyond maxClauses.
func paperExact(v *core.View, q *graph.Graph, delta, gi, maxClauses int) (float64, error) {
	eng, clauses, err := candidateDNF(v, q, delta, gi)
	if err != nil {
		return 0, err
	}
	return verify.Exact(eng, clauses, maxClauses)
}

// Fig9a — verification time: Exact vs SMP as the query grows, and beside
// them what the system's own ladder (View.VerifySSP at the default ε)
// spends on the same candidates.
func (e *Env) Fig9a() (*stats.Table, error) {
	t := stats.NewTable("Figure 9a — verification time vs query size",
		"query size", "SMP ms/graph", "Exact ms/graph", "Exact runs", "Exact capped", "ladder ms/graph")
	for _, size := range e.P.querySizes {
		var smpMS, exactMS, ladderMS []float64
		capped := 0
		for qi, q := range e.Queries[size] {
			cands, err := e.verificationCandidates(q, int64(qi))
			if err != nil {
				return nil, err
			}
			if len(cands) > 4 {
				cands = cands[:4]
			}
			for _, gi := range cands {
				qo := e.defaultQO(int64(qi))
				start := time.Now()
				if _, err := paperSMP(e.DB.View(), q, gi, qo); err != nil {
					return nil, err
				}
				smpMS = append(smpMS, ms(time.Since(start)))

				start = time.Now()
				if _, err := paperExact(e.DB.View(), q, qo.Delta, gi, 18); err == nil {
					exactMS = append(exactMS, ms(time.Since(start)))
				} else {
					capped++ // inclusion–exclusion beyond 2^18 terms
				}

				start = time.Now()
				if _, err := e.DB.View().VerifySSP(q, nil, gi, qo); err != nil {
					return nil, err
				}
				ladderMS = append(ladderMS, ms(time.Since(start)))
			}
		}
		exact := "(all runs capped)"
		if len(exactMS) > 0 {
			exact = fmt.Sprintf("%.3f", dataset.Mean(exactMS))
		}
		t.AddRow(size, dataset.Mean(smpMS), exact, len(exactMS), capped, dataset.Mean(ladderMS))
	}
	return t, nil
}

// Fig9b — SMP answer quality (precision/recall against the exact verifier).
func (e *Env) Fig9b() (*stats.Table, error) {
	t := stats.NewTable("Figure 9b — SMP precision/recall vs query size",
		"query size", "precision %", "recall %", "graphs compared")
	for _, size := range e.P.querySizes {
		tp, fp, fn, n := 0, 0, 0, 0
		for qi, q := range e.Queries[size] {
			cands, err := e.verificationCandidates(q, int64(qi))
			if err != nil {
				return nil, err
			}
			if len(cands) > 4 {
				cands = cands[:4]
			}
			for _, gi := range cands {
				smp, err := paperSMP(e.DB.View(), q, gi, e.defaultQO(int64(qi)))
				if err != nil {
					return nil, err
				}
				exact, err := paperExact(e.DB.View(), q, e.P.defaultDelta, gi, 18)
				if err != nil {
					continue // exact infeasible for this graph
				}
				n++
				smpIn := smp >= e.P.defaultEpsilon
				exactIn := exact >= e.P.defaultEpsilon
				switch {
				case smpIn && exactIn:
					tp++
				case smpIn && !exactIn:
					fp++
				case !smpIn && exactIn:
					fn++
				}
			}
		}
		prec, rec := 100.0, 100.0
		if tp+fp > 0 {
			prec = 100 * float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			rec = 100 * float64(tp) / float64(tp+fn)
		}
		t.AddRow(size, prec, rec, n)
	}
	return t, nil
}

// pruneProfile runs the pruning phases for one configuration and collects
// the candidate counts and pruning time (no verification).
type pruneProfile struct {
	structure  float64 // Grafil-filter candidates
	candidates float64 // graphs needing verification
	timeMS     float64
}

func (e *Env) pruneOnce(db *core.Database, q *graph.Graph, eps float64, delta int, optBounds bool, seed int64) (pruneProfile, error) {
	qo := core.QueryOptions{
		Epsilon: eps, Delta: delta, OptBounds: optBounds,
		Verifier: core.VerifierNone, Seed: seed,
		Concurrency: e.Cfg.Workers,
	}
	start := time.Now()
	res, err := db.View().QueryCtx(bg, q, qo)
	if err != nil {
		return pruneProfile{}, err
	}
	return pruneProfile{
		structure:  float64(res.Stats.StructFilterCandidates),
		candidates: float64(res.Stats.VerifyCandidates),
		timeMS:     ms(time.Since(start)),
	}, nil
}

// Fig10 — candidate size and pruning time vs probability threshold ε for
// Structure / SSPBound / OPT-SSPBound.
func (e *Env) Fig10() (*stats.Table, *stats.Table, error) {
	a := stats.NewTable("Figure 10a — candidate size vs ε",
		"epsilon", "Structure", "SSPBound", "OPT-SSPBound")
	b := stats.NewTable("Figure 10b — pruning time vs ε",
		"epsilon", "Structure ms", "SSPBound ms", "OPT-SSPBound ms")
	qs := e.Queries[e.P.defaultQuerySize]
	for _, eps := range e.P.epsilons {
		var structC, plainC, optC []float64
		var structT, plainT, optT []float64
		for qi, q := range qs {
			// Structure only: skip probabilistic pruning.
			qo := core.QueryOptions{Epsilon: eps, Delta: e.P.defaultDelta,
				SkipProbPruning: true, Verifier: core.VerifierNone, Seed: int64(qi)}
			start := time.Now()
			res, err := e.DB.View().QueryCtx(bg, q, qo)
			if err != nil {
				return nil, nil, err
			}
			structT = append(structT, ms(time.Since(start)))
			structC = append(structC, float64(res.Stats.StructConfirmed))

			pp, err := e.pruneOnce(e.DB, q, eps, e.P.defaultDelta, false, int64(qi))
			if err != nil {
				return nil, nil, err
			}
			plainC = append(plainC, pp.candidates)
			plainT = append(plainT, pp.timeMS)

			po, err := e.pruneOnce(e.DB, q, eps, e.P.defaultDelta, true, int64(qi))
			if err != nil {
				return nil, nil, err
			}
			optC = append(optC, po.candidates)
			optT = append(optT, po.timeMS)
		}
		a.AddRow(eps, dataset.Mean(structC), dataset.Mean(plainC), dataset.Mean(optC))
		b.AddRow(eps, dataset.Mean(structT), dataset.Mean(plainT), dataset.Mean(optT))
	}
	return a, b, nil
}

// Fig12 — feature-generation parameter study: candidates vs maxL and α,
// index build time vs β, index size vs γ.
func (e *Env) Fig12() ([]*stats.Table, error) {
	qs := e.Queries[e.P.defaultQuerySize]

	candidatesWith := func(opt core.BuildOptions) (float64, *core.Database, error) {
		db, err := core.NewDatabase(e.Raw.Graphs, opt)
		if err != nil {
			return 0, nil, err
		}
		var cs []float64
		for qi, q := range qs {
			pp, err := e.pruneOnce(db, q, e.P.defaultEpsilon, e.P.defaultDelta, true, int64(qi))
			if err != nil {
				return 0, nil, err
			}
			cs = append(cs, pp.candidates)
		}
		return dataset.Mean(cs), db, nil
	}

	a := stats.NewTable("Figure 12a — candidate size vs maxL",
		"maxL", "Structure", "OPT-SSPBound candidates", "features")
	structureBaseline := 0.0
	{
		var ss []float64
		for qi, q := range qs {
			qo := core.QueryOptions{Epsilon: e.P.defaultEpsilon, Delta: e.P.defaultDelta,
				SkipProbPruning: true, Verifier: core.VerifierNone, Seed: int64(qi)}
			res, err := e.DB.View().QueryCtx(bg, q, qo)
			if err != nil {
				return nil, err
			}
			ss = append(ss, float64(res.Stats.StructConfirmed))
		}
		structureBaseline = dataset.Mean(ss)
	}
	for _, maxL := range []int{2, 3, 4, 5} {
		opt := buildOpt()
		opt.Feature.MaxL = maxL
		c, db, err := candidatesWith(opt)
		if err != nil {
			return nil, err
		}
		a.AddRow(maxL, structureBaseline, c, db.Build().Features)
	}

	b := stats.NewTable("Figure 12b — candidate size vs α",
		"alpha", "Structure", "OPT-SSPBound candidates", "features")
	for _, alpha := range []float64{0.05, 0.1, 0.15, 0.2, 0.25} {
		opt := buildOpt()
		opt.Feature.Alpha = alpha
		c, db, err := candidatesWith(opt)
		if err != nil {
			return nil, err
		}
		b.AddRow(alpha, structureBaseline, c, db.Build().Features)
	}

	c := stats.NewTable("Figure 12c — index building time vs β",
		"beta", "build time ms", "features")
	for _, beta := range []float64{0.05, 0.1, 0.15, 0.2, 0.25} {
		opt := buildOpt()
		opt.Feature.Beta = beta
		start := time.Now()
		db, err := core.NewDatabase(e.Raw.Graphs, opt)
		if err != nil {
			return nil, err
		}
		c.AddRow(beta, ms(time.Since(start)), db.Build().Features)
	}

	d := stats.NewTable("Figure 12d — index size vs γ",
		"gamma", "index KB", "features")
	for _, gamma := range []float64{0.05, 0.1, 0.15, 0.2, 0.25} {
		opt := buildOpt()
		opt.Feature.Gamma = gamma
		db, err := core.NewDatabase(e.Raw.Graphs, opt)
		if err != nil {
			return nil, err
		}
		d.AddRow(gamma, float64(db.Build().IndexSizeBytes)/1024, db.Build().Features)
	}
	return []*stats.Table{a, b, c, d}, nil
}

// Fig13 — total query processing time vs database size: the full PMI
// pipeline vs the Exact scan baseline.
func (e *Env) Fig13() (*stats.Table, error) {
	t := stats.NewTable("Figure 13 — total query time vs database size",
		"db size", "PMI ms/query", "Exact ms/query")
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 7))
	for _, size := range e.P.dbSizes {
		raw, err := dataset.GeneratePPI(dataset.PPIOptions{
			NumGraphs: size, MinVertices: e.P.minV, MaxVertices: e.P.maxV,
			Organisms: e.P.organisms, Correlated: true, Seed: e.Cfg.Seed + int64(size),
		})
		if err != nil {
			return nil, err
		}
		db, err := core.NewDatabase(raw.Graphs, buildOpt())
		if err != nil {
			return nil, err
		}
		delta := e.P.defaultDelta + 1 // denser relaxation: the regime where Exact blows up
		var qs []*graph.Graph
		for i := 0; i < 3; i++ {
			q := dataset.ExtractQuery(raw.Graphs[rng.Intn(size)].G, e.P.defaultQuerySize, rng)
			qs = append(qs, q)
		}
		// The paper's pipeline: structural filter and PMI pruning as the
		// engine runs them, then Algorithm 5 on every undecided candidate.
		var pmiMS []float64
		for qi, q := range qs {
			qo := e.defaultQO(int64(qi))
			qo.Delta = delta
			qo.Verifier = core.VerifierNone
			start := time.Now()
			res, err := db.View().QueryCtx(bg, q, qo)
			if err != nil {
				return nil, err
			}
			for _, gi := range res.Answers {
				if res.SSP[gi] == -1 {
					continue // accepted on the lower bound
				}
				if _, err := paperSMP(db.View(), q, gi, qo); err != nil {
					return nil, err
				}
			}
			pmiMS = append(pmiMS, ms(time.Since(start)))
		}
		exact := "(skipped: exponential)"
		if size <= e.P.exactSizeLimit {
			var exactMS []float64
			cappedGraphs, totalGraphs := 0, 0
			for _, q := range qs {
				start := time.Now()
				for gi := range raw.Graphs {
					// Exact scans every graph, no pruning at all.
					totalGraphs++
					if _, err := paperExact(db.View(), q, delta, gi, 22); err != nil {
						cappedGraphs++ // > 2^20 I-E terms: infeasible
					}
				}
				exactMS = append(exactMS, ms(time.Since(start)))
			}
			exact = fmt.Sprintf("%.2f", dataset.Mean(exactMS))
			if cappedGraphs > 0 {
				exact = fmt.Sprintf("≥%.2f (%d/%d graphs infeasible)",
					dataset.Mean(exactMS), cappedGraphs, totalGraphs)
			}
		}
		t.AddRow(size, dataset.Mean(pmiMS), exact)
	}
	return t, nil
}

// Fig14 — answer quality of the correlated model vs the independent model.
// The workload is a dedicated high-reliability family dataset (the paper's
// organisms have hundreds of redundant interactions; at our scale the
// equivalent is higher edge reliability and gentler mutation so that
// same-organism SSPs span the ε sweep). Two IND baselines are reported:
//
//	IND-raw  — the paper's §6 construction: edges independent with the raw
//	           per-edge scores. The max-rule JPT shifts COR's marginals away
//	           from those scores, so IND-raw systematically over-estimates
//	           SSPs; this mismatch is part of the paper's reported gap.
//	IND-marg — the marginal-preserving counterpart (identical marginals,
//	           correlations dropped): the clean ablation isolating
//	           correlation itself.
func (e *Env) Fig14() (*stats.Table, error) {
	gen := dataset.PPIOptions{
		NumGraphs: e.P.numGraphs, MinVertices: e.P.minV, MaxVertices: e.P.maxV,
		Organisms: e.P.organisms, Correlated: true, CorrelationBoost: 1.5,
		MeanProb: 0.7, Mutations: 0.12, Seed: e.Cfg.Seed + 101,
	}
	raw, err := dataset.GeneratePPI(gen)
	if err != nil {
		return nil, err
	}
	genInd := gen
	genInd.Correlated = false
	rawInd, err := dataset.GeneratePPI(genInd) // same graphs, raw-score IND
	if err != nil {
		return nil, err
	}
	margInd, err := dataset.IndependentCounterpart(raw)
	if err != nil {
		return nil, err
	}
	cor, err := core.NewDatabase(raw.Graphs, buildOpt())
	if err != nil {
		return nil, err
	}
	indR, err := core.NewDatabase(rawInd.Graphs, buildOpt())
	if err != nil {
		return nil, err
	}
	ind, err := core.NewDatabase(margInd.Graphs, buildOpt())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 14 — query quality COR vs IND",
		"epsilon", "COR-P %", "COR-R %", "INDraw-P %", "INDraw-R %", "INDmarg-P %", "INDmarg-R %")
	rng := rand.New(rand.NewSource(e.Cfg.Seed + 11))
	type sample struct {
		q     *graph.Graph
		truth []int
	}
	qSize := 4
	if e.P.defaultQuerySize < qSize {
		qSize = e.P.defaultQuerySize
	}
	delta := e.P.defaultDelta + 1
	var samples []sample
	for i := 0; i < 2*e.P.organisms; i++ {
		fam := i % e.P.organisms
		q := dataset.ExtractQuery(raw.Seeds[fam], qSize, rng)
		if q.NumEdges() == 0 {
			continue
		}
		var truth []int
		for gi, f := range raw.Organism {
			if f == fam {
				truth = append(truth, gi)
			}
		}
		samples = append(samples, sample{q, truth})
	}
	for _, eps := range e.P.epsilons {
		var cp, cr, rp, rr, ip, ir []float64
		for si, s := range samples {
			qo := e.defaultQO(int64(si))
			qo.Epsilon = eps
			qo.Delta = delta
			for _, cfg := range []struct {
				db *core.Database
				ps *[]float64
				rs *[]float64
			}{{cor, &cp, &cr}, {indR, &rp, &rr}, {ind, &ip, &ir}} {
				res, err := cfg.db.View().QueryCtx(bg, s.q, qo)
				if err != nil {
					return nil, err
				}
				p, r := stats.PrecisionRecall(res.Answers, s.truth)
				*cfg.ps = append(*cfg.ps, 100*p)
				*cfg.rs = append(*cfg.rs, 100*r)
			}
		}
		t.AddRow(eps, dataset.Mean(cp), dataset.Mean(cr),
			dataset.Mean(rp), dataset.Mean(rr),
			dataset.Mean(ip), dataset.Mean(ir))
	}
	return t, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
