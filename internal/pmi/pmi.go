// Package pmi implements the Probabilistic Matrix Index (paper §3.1, §4):
// a feature × graph matrix whose entry for (f, g) holds lower and upper
// bounds on the subgraph isomorphism probability SIP = Pr(f ⊆iso g).
//
// Lower bound (paper §4.1.1, Eq 17): over a family IN of pairwise
// edge-disjoint embeddings of f in gc,
//
//	LowerB(f) = 1 − Π_{i∈IN} (1 − Pr(Bfi | COR_i))
//
// where COR_i conditions on the overlapping embeddings being absent. The
// tightest family is a maximum weight clique on the embedding-disjointness
// graph fG with node weights −ln(1 − Pr(Bfi|COR_i)) (paper Example 6).
//
// Upper bound (paper §4.1.2, Eq 20): dually, over a family IN′ of pairwise
// disjoint minimal embedding cuts,
//
//	UpperB(f) = Π_{i∈IN′} (1 − Pr(Bci | COM_i))
//
// with the tightest family again a maximum weight clique, now over cuts.
//
// The conditionals Pr(B|COND) are exact: a ratio of two inclusion–exclusion
// evaluations (prob.ProbConjNegConj) over a conditioning set of at most
// maxOverlap members, where the paper estimates them by Monte-Carlo sampling
// (Algorithm 3).
//
// The build's one knob is Optimize (OPT-SIPBound vs SIPBound, the paper's
// Fig 11). Its caps — maxEmbeddings, maxCuts, maxOverlap — are constants,
// and the columns run on the shared pool at GOMAXPROCS workers.
package pmi

import (
	"context"
	"fmt"
	"math"
	"sort"

	"probgraph/internal/cuts"
	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/mwclique"
	"probgraph/internal/pool"
	"probgraph/internal/prob"
)

// Caps on the work of one (feature, graph) cell.
const (
	maxEmbeddings = 24 // |Ef| enumerated per cell
	maxCuts       = 24 // minimal embedding cuts enumerated per cell
	maxOverlap    = 6  // conditioning set |COR|/|COM| per embedding or cut
)

// Options tunes index construction.
type Options struct {
	// Optimize selects OPT-SIPBound (max-weight-clique tightest families).
	// When false the builder uses the greedy disjoint family (the paper's
	// plain SIPBound ablation). Default true via NewOptions.
	Optimize bool
	// Seed is read by nothing: the build is exact and draws no samples.
	// It remains only because the benchmark's corpus recipe sets it.
	Seed int64
}

// NewOptions returns the default (OPT-SIPBound) configuration.
func NewOptions() Options {
	return Options{Optimize: true}
}

// Entry is one cell of the matrix: SIP bounds of feature f in graph g.
// Lower and Upper are two exact evaluations — a union of embeddings, an
// intersection of cuts — that bracket the same SIP, and where they describe
// the same event they may cross by an ulp (Lower > Upper by ≤ 3.4e-16 in
// about a quarter of the contained cells of the ledger corpus): consumers
// may rely on Lower ≤ Upper + 1e-12, never on Lower ≤ Upper bitwise.
type Entry struct {
	Contained bool // f ⊆iso gc; when false the paper stores ⟨0⟩
	Lower     float64
	Upper     float64
}

// Index is the probabilistic matrix index. It is immutable once
// published; the copy-on-write constructors in incremental.go (WithColumn,
// WithFreedColumns, WithReplacedColumn, Select) return new indexes sharing
// untouched columns with their predecessor.
type Index struct {
	Features []*graph.Graph
	// Opt is not persisted with the index; the snapshot loader restores it
	// from the database's build options.
	Opt Options

	// cols is the matrix, column-major: cols[gi][fi] bounds
	// Pr(Features[fi] ⊆iso db[gi]) — the row Dg a query reads for one
	// candidate is one contiguous slice, and a mutation touches one column.
	// A removed graph's column is nil: its entries are freed, EncodeSnap
	// writes it as uncontained and Lookup is never called for it.
	cols [][]Entry
}

// At returns the entry of feature fi in graph gi (the paper's ⟨0⟩ for a
// freed column).
func (idx *Index) At(fi, gi int) Entry {
	if idx.cols[gi] == nil {
		return Entry{}
	}
	return idx.cols[gi][fi]
}

// NumGraphs returns the column count of the matrix, freed columns
// included.
func (idx *Index) NumGraphs() int { return len(idx.cols) }

// Build constructs the PMI for the database. engines[i] must be an
// inference engine over db[i]; feats come from the feature miner. The build
// fans out across graphs, one column (incremental.go) each.
func Build(db []*prob.PGraph, engines []*prob.Engine, feats []*feature.Feature, opt Options) (*Index, error) {
	if len(db) != len(engines) {
		return nil, fmt.Errorf("pmi: %d graphs but %d engines", len(db), len(engines))
	}
	idx := &Index{Opt: opt, cols: make([][]Entry, len(db))}
	for _, f := range feats {
		idx.Features = append(idx.Features, f.G)
	}

	// Invert feature support for quick "contained" lookups.
	contained := make([][]bool, len(feats))
	for fi, f := range feats {
		contained[fi] = make([]bool, len(db))
		for _, gi := range f.Support {
			contained[fi][gi] = true
		}
	}

	// One column per graph, each into its own slot. The first failure
	// stops the hand-out of further graphs, and the error reported is the
	// lowest failing graph's, whichever worker met one first (the pool's
	// failure rule).
	err := pool.ForEachIndexCtx(context.Background(), len(db), pool.Normalize(-1, len(db)), func(gi int) error {
		var err error
		idx.cols[gi], err = idx.column(db[gi], engines[gi], gi, func(fi int) bool { return contained[fi][gi] })
		return err
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// graphBuilder computes the entries of one graph's column.
type graphBuilder struct {
	opt Options
	pg  *prob.PGraph
	eng *prob.Engine
}

// bounds computes the PMI entry for one contained feature.
func (b *graphBuilder) bounds(f *graph.Graph) (Entry, error) {
	gc := b.pg.G
	embs := iso.EdgeSets(f, gc, nil, maxEmbeddings)
	if len(embs) == 0 {
		// Support said contained but matching found nothing: inconsistent.
		return Entry{}, fmt.Errorf("no embeddings for contained feature")
	}
	lower, err := b.lowerBound(embs)
	if err != nil {
		return Entry{}, err
	}
	upper, err := b.upperBound(embs)
	if err != nil {
		return Entry{}, err
	}
	return Entry{Contained: true, Lower: lower, Upper: upper}, nil
}

// condProb returns Pr(all of base hold polarity | none of others fully hold
// polarity) exactly, as the ratio of two inclusion–exclusion evaluations.
func (b *graphBuilder) condProb(base graph.EdgeSet, others []graph.EdgeSet, present bool) (float64, error) {
	num, err := prob.ProbConjNegConj(b.eng, &base, others, present)
	if err != nil {
		return 0, err
	}
	den, err := prob.ProbConjNegConj(b.eng, nil, others, present)
	if err != nil {
		return 0, err
	}
	if den <= 0 {
		return 0, nil
	}
	p := num / den
	if p > 1 {
		p = 1
	}
	return p, nil
}

// overlapping returns up to maxOverlap members of sets (≠ skip) sharing an
// edge with base, largest overlap first.
func (b *graphBuilder) overlapping(base graph.EdgeSet, sets []graph.EdgeSet, skip int) []graph.EdgeSet {
	type scored struct {
		i       int
		overlap int
	}
	var cand []scored
	for i, s := range sets {
		if i == skip || !base.Intersects(s) {
			continue
		}
		ov := 0
		for _, e := range s.Slice() {
			if base.Contains(e) {
				ov++
			}
		}
		cand = append(cand, scored{i, ov})
	}
	sort.Slice(cand, func(a, c int) bool {
		if cand[a].overlap != cand[c].overlap {
			return cand[a].overlap > cand[c].overlap
		}
		return cand[a].i < cand[c].i
	})
	if len(cand) > maxOverlap {
		cand = cand[:maxOverlap]
	}
	out := make([]graph.EdgeSet, len(cand))
	for i, c := range cand {
		out[i] = sets[c.i]
	}
	return out
}

// lowerBound follows §4.1.1: weight each embedding by −ln(1 − Pr(Bfi|COR))
// (exact conditionals), pick the tightest pairwise-disjoint
// family via the Example 6 max-weight clique, then evaluate the selected
// family. The paper's Eq 17 multiplies (1 − Pr(Bfi|COR)) assuming the
// disjoint embeddings are conditionally independent; under shared-edge JPTs
// that product can exceed the true SIP, so we sharpen the final step: the
// union probability Pr(∨_{i∈IN} Bfi) of the selected family is computed
// exactly by inclusion–exclusion over the inference engine, which is a
// sound lower bound for any family (monotonicity of union) and is at least
// as tight as the product form when independence does hold.
func (b *graphBuilder) lowerBound(embs []graph.EdgeSet) (float64, error) {
	weights, err := b.familyWeights(embs, true)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, fam := range b.candidateFamilies(embs, weights) {
		sets := pickSets(embs, fam)
		pNone, err := prob.ProbConjNegConj(b.eng, nil, sets, true)
		if err != nil {
			return 0, err
		}
		if v := 1 - pNone; v > best {
			best = v
		}
	}
	return best, nil
}

// upperBound follows §4.1.2 dually over minimal embedding cuts: weights
// −ln(1 − Pr(Bci|COM)), tightest disjoint family by max-weight clique, and
// the intersection Pr(∧_{i∈IN′} ¬Bci) evaluated exactly (sound upper bound
// for any cut family: every enumerated cut is a true embedding cut, so
// SIP = Pr(no cut of the full family is absent) ≤ Pr(none of IN′ absent)).
func (b *graphBuilder) upperBound(embs []graph.EdgeSet) (float64, error) {
	cutSets := cuts.MinimalCuts(embs, b.pg.G.NumEdges(), maxCuts)
	if len(cutSets) == 0 {
		return 1, nil
	}
	weights, err := b.familyWeights(cutSets, false)
	if err != nil {
		return 0, err
	}
	best := 1.0
	for _, fam := range b.candidateFamilies(cutSets, weights) {
		sets := pickSets(cutSets, fam)
		pNone, err := prob.ProbConjNegConj(b.eng, nil, sets, false)
		if err != nil {
			return 0, err
		}
		if pNone < best {
			best = pNone
		}
	}
	return best, nil
}

// familyWeights computes the per-member clique weights −ln(1−Pr(B·|COND))
// of §4.1 (embeddings when present=true, cuts when present=false).
func (b *graphBuilder) familyWeights(sets []graph.EdgeSet, present bool) ([]float64, error) {
	weights := make([]float64, len(sets))
	for i, s := range sets {
		cond := b.overlapping(s, sets, i)
		p, err := b.condProb(s, cond, present)
		if err != nil {
			return nil, err
		}
		weights[i] = clampNegLog1m(p)
	}
	return weights, nil
}

// MaxExactFamily bounds the family size whose union/intersection is
// evaluated exactly (2^k inclusion–exclusion terms).
const MaxExactFamily = 8

// candidateFamilies returns the disjoint families to evaluate: the greedy
// family always, plus the max-weight clique family under Optimize (taking
// the better of the two keeps OPT-SIPBound ≥ SIPBound by construction).
func (b *graphBuilder) candidateFamilies(sets []graph.EdgeSet, weights []float64) [][]int {
	families := [][]int{capFamily(iso.MaxDisjointGreedy(sets), weights)}
	if !b.opt.Optimize {
		return families
	}
	g := mwclique.NewGraph(len(sets))
	copy(g.Weight, weights)
	for i := range sets {
		for j := i + 1; j < len(sets); j++ {
			if !sets[i].Intersects(sets[j]) {
				g.AddEdge(i, j)
			}
		}
	}
	families = append(families, capFamily(mwclique.Solve(g).Nodes, weights))
	return families
}

// capFamily keeps the MaxExactFamily heaviest members.
func capFamily(fam []int, weights []float64) []int {
	if len(fam) <= MaxExactFamily {
		return fam
	}
	cp := append([]int(nil), fam...)
	sort.Slice(cp, func(a, b int) bool { return weights[cp[a]] > weights[cp[b]] })
	return cp[:MaxExactFamily]
}

func pickSets(sets []graph.EdgeSet, fam []int) []graph.EdgeSet {
	out := make([]graph.EdgeSet, len(fam))
	for i, j := range fam {
		out[i] = sets[j]
	}
	return out
}

// clampNegLog1m returns −ln(1−p) with p clamped into [0, 1−1e−12] so that
// certain events produce a very large (not infinite) weight.
func clampNegLog1m(p float64) float64 {
	if p < 0 {
		p = 0
	}
	if p > 1-1e-12 {
		p = 1 - 1e-12
	}
	return -math.Log1p(-p)
}

// Lookup returns the row Dg of the paper: for each feature contained in
// gc(gi), its entry. The returned slice is indexed by feature.
func (idx *Index) Lookup(gi int) []Entry {
	return idx.LookupInto(gi, make([]Entry, 0, len(idx.Features)))
}

// LookupInto is Lookup gathering into buf (reset to length 0 first): the
// query hot path calls it once per candidate with a pooled buffer, so the
// steady state allocates nothing. It allocates only when buf's capacity
// is short.
func (idx *Index) LookupInto(gi int, buf []Entry) []Entry {
	return append(buf[:0], idx.cols[gi]...)
}

// NumFeatures returns the number of indexed features.
func (idx *Index) NumFeatures() int { return len(idx.Features) }

// SizeBytes estimates the in-memory size of the matrix (the paper's
// "index size" metric of Figure 12d): 17 bytes per entry (two float64s and
// a flag) plus the feature graphs.
func (idx *Index) SizeBytes() int {
	total := 17 * len(idx.Features) * len(idx.cols)
	for _, f := range idx.Features {
		total += 16*f.NumVertices() + 24*f.NumEdges()
	}
	return total
}
