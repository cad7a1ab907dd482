package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"probgraph/internal/dataset"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/prob"
	"probgraph/internal/relax"
	"probgraph/internal/verify"
)

// ladderDatabase is smallDatabase with the probabilities the ladder's
// short-circuits exist for: in every third graph the first correlated
// factor is made certainly present (its edges at probability 1, so clauses
// inside it are certain) and the second certainly absent (probability 0).
func ladderDatabase(t *testing.T, seed int64, n int) *Database {
	t.Helper()
	_, raw := smallDatabase(t, seed, n, true)
	graphs := make([]*prob.PGraph, len(raw.Graphs))
	for i, pg := range raw.Graphs {
		graphs[i] = pg
		if i%3 != 0 || len(pg.JPTs) < 2 {
			continue
		}
		jpts := slices.Clone(pg.JPTs)
		for k, present := range []bool{true, false} {
			tab := make([]float64, len(jpts[k].P))
			if present {
				tab[len(tab)-1] = 1
			} else {
				tab[0] = 1
			}
			jpts[k] = prob.JPT{Edges: jpts[k].Edges, P: tab}
		}
		graphs[i] = prob.MustNew(pg.G, jpts)
	}
	return indexSmall(t, graphs, seed)
}

// heavyGraph is q blown up: every vertex of q becomes three of its label
// and every edge the nine edges between their copies, each present
// independently with probability 0.02–0.17. q embeds in it many times over
// and its clauses couple edges all across it, so the elimination of its DNF
// is wide and costs more than EliminationBudget — the ladder samples it —
// while each clause probability stays a product of marginals. The
// probabilities are low enough that some of those DNFs have a bound V
// close to ε, where the sampler stops early.
func heavyGraph(t *testing.T, q *graph.Graph, rng *rand.Rand) *prob.PGraph {
	t.Helper()
	b := graph.NewBuilder("heavy")
	const copies = 3
	for v := 0; v < q.NumVertices(); v++ {
		b.AddVertices(copies, q.VertexLabel(graph.VertexID(v)))
	}
	p := map[graph.EdgeID]float64{}
	for _, e := range q.Edges() {
		for i := range graph.VertexID(copies) {
			for j := range graph.VertexID(copies) {
				p[b.MustAddEdge(copies*e.U+i, copies*e.V+j, e.Label)] = 0.02 + 0.15*rng.Float64()
			}
		}
	}
	pg, err := prob.NewIndependent(b.Build(), p)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// withHeavyGraphs rebuilds db as indexSmall does with one heavyGraph per
// query appended, for tests that need candidates the ladder samples.
func withHeavyGraphs(t *testing.T, db *Database, seed int64, qs ...*graph.Graph) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	graphs := slices.Clone(db.View().Graphs)
	for _, q := range qs {
		graphs = append(graphs, heavyGraph(t, q, rng))
	}
	return indexSmall(t, graphs, seed)
}

// ladderQueries extracts n queries of 4–5 edges from the database's graphs.
func ladderQueries(v *View, seed int64, n int) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]*graph.Graph, n)
	for i := range qs {
		qs[i] = dataset.ExtractQuery(v.Certain[rng.Intn(v.Len())], 4+i%2, rng)
	}
	return qs
}

// prepareDNF is the ladder's first rung as VerifySSP reaches it: gi's
// clauses enumerated from q, then prepared. capped reports that the search
// stopped at the cap: prepare then lowers any threshold, 1 included, to 0.
func (v *View) prepareDNF(q *graph.Graph, gi int, opt QueryOptions) (d *verify.DNF, capped bool, err error) {
	d, at, err := v.prepare(iso.EdgeSetsWithin(q, v.Certain[gi], opt.Delta, DefaultMaxClausesPerCandidate), gi, opt, 1)
	return d, at == 0, err
}

// perRQClauses is the clause collection prepareDNF replaced, kept as its
// reference: one iso.EdgeSets per member of U = relax.Relaxed(q, δ, 0), at
// most capPerRQ sets each, deduplicated and absorbed. capped reports
// whether some member reached its cap.
func perRQClauses(v *View, q *graph.Graph, delta, gi, capPerRQ int) (clauses []graph.EdgeSet, capped bool) {
	for _, rq := range relax.Relaxed(q, delta, 0) {
		sets := iso.EdgeSets(rq, v.Certain[gi], nil, capPerRQ)
		capped = capped || len(sets) == capPerRQ
		clauses = append(clauses, sets...)
	}
	return verify.DedupClauses(clauses), capped
}

// TestDNFWithinMatchesPerRQ: the DNF prepareDNF builds from one budgeted
// search of q is bitwise the one the per-rq collection built — bound,
// clause count, exact value, and the sampler's estimate and draws at ε 0
// and 0.5 — for every graph of the ladder databases (edges at probability
// 0 and 1) and of correlated and independent PPI databases, for 4–6-edge
// queries at δ 0–3, with and without a MaxClauses truncation. The old
// collection's per-rq cap of 64 binds nowhere here.
func TestDNFWithinMatchesPerRQ(t *testing.T) {
	var views []*View
	for _, seed := range []int64{41, 42} {
		views = append(views, ladderDatabase(t, seed, 12).View())
	}
	for _, seed := range []int64{71, 72} {
		db, _ := smallDatabase(t, seed, 12, seed%2 == 0)
		views = append(views, db.View())
	}
	compared, sampled := 0, 0
	for vi, v := range views {
		rng := rand.New(rand.NewSource(int64(vi)))
		for qi := 0; qi < 4; qi++ {
			q := dataset.ExtractQuery(v.Certain[rng.Intn(v.Len())], 4+qi%3, rng)
			for delta := 0; delta <= 3 && delta < q.NumEdges(); delta++ {
				opt := QueryOptions{Delta: delta, Seed: int64(qi), Verify: verify.Options{N: 300, MaxClauses: []int{0, 4}[delta%2]}}.withDefaults()
				for gi := 0; gi < v.Len(); gi++ {
					at := fmt.Sprintf("view %d q %d δ %d graph %d", vi, qi, delta, gi)
					old, capped := perRQClauses(v, q, delta, gi, 64)
					if capped {
						t.Fatalf("%s: the per-rq cap binds", at)
					}
					got, _, err := v.prepareDNF(q, gi, opt)
					if err != nil {
						t.Fatal(err)
					}
					eng, err := v.Engine(gi)
					if err != nil {
						t.Fatal(err)
					}
					vo := opt.Verify
					vo.Seed = candSeed(opt.Seed^verifySalt, v.GID(gi))
					want, err := verify.Prepare(eng, old, vo)
					if err != nil {
						t.Fatal(err)
					}
					if got.Bound() != want.Bound() || got.Clauses() != want.Clauses() {
						t.Fatalf("%s: bound %v over %d clauses, per-rq %v over %d", at, got.Bound(), got.Clauses(), want.Bound(), want.Clauses())
					}
					if got.Clauses() <= 12 {
						g, gerr := got.Exact(0)
						w, werr := want.Exact(0)
						if g != w || (gerr == nil) != (werr == nil) {
							t.Fatalf("%s: exact %v (%v), per-rq %v (%v)", at, g, gerr, w, werr)
						}
					}
					for _, eps := range []float64{0, 0.5} {
						g, gn, gerr := got.Sample(eps)
						w, wn, werr := want.Sample(eps)
						if g != w || gn != wn || (gerr == nil) != (werr == nil) {
							t.Fatalf("%s ε %v: estimate %v from %d samples, per-rq %v from %d", at, eps, g, gn, w, wn)
						}
						sampled += gn
					}
					if len(old) > 0 {
						compared++
					}
				}
			}
		}
	}
	t.Logf("%d candidates with clauses compared, %d samples drawn", compared, sampled)
	if compared < 200 || sampled == 0 {
		t.Fatal("the comparison no longer reaches enough candidates with clauses")
	}
}

// TestVerifyWithinReadsAllOfU: MaxRelaxed caps what the PMI bounds read
// and nothing else. Under a cap of one member every verified value is the
// uncapped one, bitwise — VerifySSP, VerifySSPBatch and the SSPs of a
// QueryCtx without pruning — where verification used to read the capped
// prefix of U and could miss a confirmed graph's clauses altogether.
func TestVerifyWithinReadsAllOfU(t *testing.T) {
	moved := 0
	for _, seed := range []int64{41, 42} {
		v := ladderDatabase(t, seed, 12).View()
		for qi, q := range ladderQueries(v, seed, 4) {
			opt := QueryOptions{Epsilon: 0.3, Delta: 1 + qi%2, OptBounds: true, SkipProbPruning: true, Seed: seed}
			capped := opt
			capped.MaxRelaxed = 1
			scq, _ := v.Struct.SCq(q, opt.Delta, 1)
			full, err := v.VerifySSPBatch(bg, q, scq, opt)
			if err != nil {
				t.Fatal(err)
			}
			cut, err := v.VerifySSPBatch(bg, q, scq, capped)
			if err != nil {
				t.Fatal(err)
			}
			res, err := v.QueryCtx(bg, q, capped)
			if err != nil {
				t.Fatal(err)
			}
			for i, gi := range scq {
				one, err := v.VerifySSP(q, nil, gi, capped)
				if err != nil {
					t.Fatal(err)
				}
				uncapped, err := v.VerifySSP(q, nil, gi, opt)
				if err != nil {
					t.Fatal(err)
				}
				if cut[i] != full[i] || one != uncapped || res.SSP[gi] != uncapped {
					t.Fatalf("seed %d q %d graph %d: under MaxRelaxed 1 batch %v, VerifySSP %v, QueryCtx %v; uncapped %v and %v",
						seed, qi, gi, cut[i], one, res.SSP[gi], full[i], uncapped)
				}
				// What the capped prefix of U alone would have collected.
				prefix := 0
				for _, rq := range relax.Relaxed(q, opt.Delta, 1) {
					prefix += len(iso.EdgeSets(rq, v.Certain[gi], nil, 0))
				}
				if prefix < len(iso.EdgeSetsWithin(q, v.Certain[gi], opt.Delta, 0)) {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Fatal("no candidate has clauses outside U's first member: the cap would not have mattered")
	}
}

var ladderEpsGrid = []float64{0.02, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.75, 0.9, 1}

// TestLadderValueContract holds every rung to the contract VerifySSP
// documents, on databases with edges at probability 0 and 1, certain
// clauses, DNFs past MaxClauses and, per query, one heavyGraph whose DNF the
// elimination declines. For every structural candidate: (a) the ranked
// value and the value at every ε are at most the candidate's DNF bound,
// bitwise, and it is never scheduled above that bound; (b) the decision at
// every ε is the ranked value's, an answer carries exactly the ranked
// value, and a DNF over the elimination budget ranks at the un-thresholded
// verify.SMP of the same seed; (c) a DNF within the budget ranks at its
// enumerated SSP, on the ladder database's own graphs (a heavy graph has
// up to 45 uncertain edges, too many to enumerate); and QueryCtx reports
// VerifySSP's values with counters that add up.
func TestLadderValueContract(t *testing.T) {
	var certain, impossible, truncated, sampled, exact, byBound, stopped int
	for _, seed := range []int64{41, 42, 43} {
		base := ladderDatabase(t, seed, 12)
		qs := ladderQueries(base.View(), seed, 4)
		v := withHeavyGraphs(t, base, seed, qs...).View()
		for qi, q := range qs {
			opt := QueryOptions{
				Delta: 1 + qi%2, OptBounds: true, Seed: seed + int64(qi),
				Verify: verify.Options{N: 256, MaxClauses: []int{0, 4}[qi/2%2]},
			}
			scq, _ := v.Struct.SCq(q, opt.Delta, 1)
			if len(scq) == 0 {
				continue
			}
			bounds, _, err := v.QueryTopKBounds(bg, q, 1, opt)
			if err != nil {
				t.Fatal(err)
			}
			upper := map[int]float64{}
			for _, b := range bounds {
				upper[b.Graph] = b.Upper
			}
			ranked, err := v.VerifySSPBatch(bg, q, scq, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, gi := range scq {
				clauses := iso.EdgeSetsWithin(q, v.Certain[gi], opt.Delta, DefaultMaxClausesPerCandidate)
				d, _, err := v.prepareDNF(q, gi, opt.withDefaults())
				if err != nil {
					t.Fatal(err)
				}
				if upper[gi] > d.Bound() {
					t.Fatalf("seed %d q %d graph %d: scheduled at %v, above its DNF bound %v", seed, qi, gi, upper[gi], d.Bound())
				}
				if ranked[i] > d.Bound() {
					t.Fatalf("seed %d q %d graph %d: ranked value %v above its bound %v", seed, qi, gi, ranked[i], d.Bound())
				}
				for _, eps := range ladderEpsGrid {
					o := opt
					o.Epsilon = eps
					got, err := v.VerifySSP(q, nil, gi, o)
					if err != nil {
						t.Fatal(err)
					}
					if got > d.Bound() {
						t.Fatalf("seed %d q %d graph %d ε %v: value %v above its bound %v", seed, qi, gi, eps, got, d.Bound())
					}
					if (got >= eps) != (ranked[i] >= eps) || (got >= eps && got != ranked[i]) {
						t.Fatalf("seed %d q %d graph %d ε %v: value %v, ranked value %v", seed, qi, gi, eps, got, ranked[i])
					}
				}

				switch {
				case len(clauses) > 0 && d.Clauses() == 0 && d.Bound() == 1:
					certain++
				case len(clauses) > 0 && d.Clauses() == 0:
					impossible++
				case d.Clauses() < len(clauses):
					truncated++
				}
				if _, ok, _ := d.Eliminate(EliminationBudget); !ok {
					vo := opt.Verify
					vo.Seed = candSeed(opt.Seed^verifySalt, gi)
					eng, err := v.Engine(gi)
					if err != nil {
						t.Fatal(err)
					}
					smp, err := verify.SMP(eng, clauses, vo)
					if err != nil {
						t.Fatal(err)
					}
					if ranked[i] != smp {
						t.Fatalf("seed %d q %d graph %d: %d clauses over the budget rank at %v, verify.SMP gives %v", seed, qi, gi, d.Clauses(), ranked[i], smp)
					}
				} else if gi < base.View().Len() && (d.Clauses() == len(clauses) || d.Clauses() == 0) {
					want, err := v.ExactSSPByEnumeration(q, gi, opt.Delta)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(ranked[i]-want) > 1e-12 {
						t.Fatalf("seed %d q %d graph %d: elimination %v, enumeration %v", seed, qi, gi, ranked[i], want)
					}
				}
			}

			for _, eps := range []float64{0.1, 0.5} {
				o := opt
				o.Epsilon, o.SkipProbPruning = eps, true
				res, err := v.QueryCtx(bg, q, o)
				if err != nil {
					t.Fatal(err)
				}
				st := res.Stats
				if st.VerifyCandidates != len(scq) || len(res.SSP) != len(scq) {
					t.Fatalf("seed %d q %d: %d verified, %d values, %d candidates", seed, qi, st.VerifyCandidates, len(res.SSP), len(scq))
				}
				draws := 0
				for _, gi := range scq {
					want, _ := v.VerifySSP(q, nil, gi, o)
					if res.SSP[gi] != want || slices.Contains(res.Answers, gi) != (want >= eps) {
						t.Fatalf("seed %d q %d graph %d: QueryCtx reports %v, VerifySSP %v", seed, qi, gi, res.SSP[gi], want)
					}
					if d, _ := v.verifySSP(q, gi, o.withDefaults(), eps); d.samples > 0 {
						draws += d.samples
						sampled++
						if d.samples < o.Verify.N {
							stopped++
						}
					}
				}
				if st.SamplesDrawn != draws || st.RejectedByBound+st.DecidedExactly > st.VerifyCandidates {
					t.Fatalf("seed %d q %d: ladder counters %+v do not add up (%d samples)", seed, qi, st, draws)
				}
				exact += st.DecidedExactly
				byBound += st.RejectedByBound
			}
		}
	}
	t.Logf("%d certain, %d impossible, %d truncated DNFs; %d sampled (%d stopped early), %d exact, %d rejected on the bound",
		certain, impossible, truncated, sampled, stopped, exact, byBound)
	if certain == 0 || impossible == 0 || truncated == 0 || sampled == 0 || stopped == 0 || exact == 0 || byBound == 0 {
		t.Fatal("the fixture no longer reaches every rung and edge case")
	}
}

// TestLadderTopKParity: the ranking QueryTopKCtx returns is the exhaustive
// verify-everything ranking, except possibly for which of the candidates
// tied at the k-th value it holds; and the serial run, the parallel run, the
// replay of the serial rule over QueryTopKBounds + VerifySSPBatch, and the
// same replay over two range partitions merged by (Upper, global id) are
// bitwise the same ranking — while verifying fewer candidates than exist.
func TestLadderTopKParity(t *testing.T) {
	verified, candidates := 0, 0
	for _, seed := range []int64{51, 52} {
		db := ladderDatabase(t, seed, 14)
		v := db.View()
		lo, err := v.Range(0, v.Len()/2)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := v.Range(v.Len()/2, v.Len())
		if err != nil {
			t.Fatal(err)
		}
		shards := []*View{lo, hi}
		for qi, q := range ladderQueries(v, seed, 4) {
			for _, k := range []int{1, 3, 5} {
				opt := QueryOptions{Delta: 1 + qi%2, OptBounds: true, Seed: seed + int64(qi), Verify: verify.Options{N: 256}}
				scq, _ := v.Struct.SCq(q, opt.Delta, 1)
				all, err := v.VerifySSPBatch(bg, q, scq, opt)
				if err != nil {
					t.Fatal(err)
				}
				var want []TopKItem
				for i, gi := range scq {
					if all[i] > 0 {
						want = append(want, TopKItem{Graph: gi, SSP: all[i]})
					}
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].SSP != want[j].SSP {
						return want[i].SSP > want[j].SSP
					}
					return want[i].Graph < want[j].Graph
				})
				want = want[:min(k, len(want))]

				serial, err := v.QueryTopKCtx(bg, q, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(serial) != len(want) {
					t.Fatalf("seed %d q %d k %d: %d items, exhaustive ranking has %d", seed, qi, k, len(serial), len(want))
				}
				for i := range want {
					if serial[i].SSP != want[i].SSP || (want[i].SSP > want[len(want)-1].SSP && serial[i].Graph != want[i].Graph) {
						t.Fatalf("seed %d q %d k %d rank %d: %+v, exhaustive ranking %+v", seed, qi, k, i, serial[i], want[i])
					}
				}

				po := opt
				po.Concurrency = 4
				parallel, err := v.QueryTopKCtx(bg, q, k, po)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(parallel, serial) {
					t.Fatalf("seed %d q %d k %d: parallel %v, serial %v", seed, qi, k, parallel, serial)
				}

				replayed, n := replayTopK(t, []*View{v}, q, k, opt)
				if !slices.Equal(replayed, serial) {
					t.Fatalf("seed %d q %d k %d: bounds+verify replay %v, QueryTopKCtx %v", seed, qi, k, replayed, serial)
				}
				verified += n
				candidates += len(scq)
				if sharded, _ := replayTopK(t, shards, q, k, opt); !slices.Equal(sharded, serial) {
					t.Fatalf("seed %d q %d k %d: two-shard replay %v, QueryTopKCtx %v", seed, qi, k, sharded, serial)
				}
			}
		}
	}
	t.Logf("replays verified %d of %d candidates", verified, candidates)
	if verified >= candidates {
		t.Fatal("the schedule never terminated a top-k early")
	}
}

// serialTopK is the test tree's one oracle for the top-k rule, written the
// plain way and sharing nothing with topkRule: one value per entry, a
// stable re-sort per insertion. It returns the ranking and how many entries
// it valued.
func serialTopK(sched []TopKBound, k int, value func(i int) float64) (top []TopKItem, verified int) {
	for i, e := range sched {
		if len(top) >= k && e.Upper <= top[len(top)-1].SSP {
			break
		}
		verified++
		if ssp := value(i); ssp > 0 {
			top = append(top, TopKItem{Graph: e.Graph, SSP: ssp})
			sort.SliceStable(top, func(a, b int) bool {
				if top[a].SSP != top[b].SSP {
					return top[a].SSP > top[b].SSP
				}
				return top[a].Graph < top[b].Graph
			})
			top = top[:min(k, len(top))]
		}
	}
	return top, verified
}

// replayTopK answers a top-k query the way a coordinator does: merge the
// shards' schedules by (Upper descending, global id ascending), then apply
// the serial rule, fetching each value from the owning shard. It returns
// the ranking in global ids and how many candidates it verified.
func replayTopK(t *testing.T, shards []*View, q *graph.Graph, k int, opt QueryOptions) ([]TopKItem, int) {
	t.Helper()
	type entry struct {
		TopKBound // in global ids
		shard     *View
		local     int
	}
	var sched []entry
	for _, s := range shards {
		bounds, degenerate, err := s.QueryTopKBounds(bg, q, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if degenerate {
			t.Fatal("degenerate schedule: nothing to replay")
		}
		for _, b := range bounds {
			sched = append(sched, entry{TopKBound{Graph: s.GID(b.Graph), Upper: b.Upper}, s, b.Graph})
		}
	}
	sort.SliceStable(sched, func(i, j int) bool {
		if sched[i].Upper != sched[j].Upper {
			return sched[i].Upper > sched[j].Upper
		}
		return sched[i].Graph < sched[j].Graph
	})
	merged := make([]TopKBound, len(sched))
	for i, e := range sched {
		merged[i] = e.TopKBound
	}
	return serialTopK(merged, k, func(i int) float64 {
		ssps, err := sched[i].shard.VerifySSPBatch(bg, q, []int{sched[i].local}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return ssps[0]
	})
}

// TestCappedCandidateNotRejectedOnBound: a candidate whose clause
// enumeration stops at DefaultMaxClausesPerCandidate is never rejected on
// a bound. A 31-leaf star holds C(31, 3) = 4 495 edge sets of a three-edge
// star query, its edges each present with probability 0.05, so the capped
// V is 4 096·0.05³ ≈ 0.51 and the full V ≈ 0.56: at ε 0.55 the capped V
// alone would reject a candidate the full DNF's bound does not. It is
// verified instead, by the sampler's full N since its elimination is far
// over the budget, in VerifySSP and in QueryCtx alike.
func TestCappedCandidateNotRejectedOnBound(t *testing.T) {
	const leaves, eps = 31, 0.55
	star := func(n int) *graph.Graph {
		b := graph.NewBuilder("star")
		hub := b.AddVertex("a")
		for i := 0; i < n; i++ {
			b.MustAddEdge(hub, b.AddVertex("b"), "")
		}
		return b.Build()
	}
	g := star(leaves)
	p := map[graph.EdgeID]float64{}
	for e := 0; e < g.NumEdges(); e++ {
		p[graph.EdgeID(e)] = 0.05
	}
	pg, err := prob.NewIndependent(g, p)
	if err != nil {
		t.Fatal(err)
	}
	v := indexSmall(t, []*prob.PGraph{pg}, 1).View()
	q := star(3)
	opt := QueryOptions{Epsilon: eps, SkipProbPruning: true, Verify: verify.Options{N: 200}}.withDefaults()

	d, capped, err := v.prepareDNF(q, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := v.Engine(0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := verify.Prepare(eng, iso.EdgeSetsWithin(q, v.Certain[0], 0, 0), opt.Verify)
	if err != nil {
		t.Fatal(err)
	}
	if !capped || d.Bound() >= eps || full.Bound() < eps {
		t.Fatalf("fixture: capped %v, capped V %v, full V %v at ε %v", capped, d.Bound(), full.Bound(), eps)
	}
	dec, err := v.verifySSP(q, 0, opt, eps)
	if err != nil {
		t.Fatal(err)
	}
	if dec.byBound || dec.samples != opt.Verify.N {
		t.Fatalf("capped candidate decided %+v: rejected on the bound or sampled short of N = %d", dec, opt.Verify.N)
	}
	res, err := v.QueryCtx(bg, q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.VerifyCandidates != 1 || st.RejectedByBound != 0 || st.SamplesDrawn != opt.Verify.N || res.SSP[0] != dec.ssp {
		t.Fatalf("QueryCtx: stats %+v, SSP %v; VerifySSP's decision %+v", st, res.SSP[0], dec)
	}
}
