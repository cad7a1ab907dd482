// Package pmi implements the Probabilistic Matrix Index (paper §3.1, §4):
// a feature × graph matrix whose entry for (f, g) holds lower and upper
// bounds on the subgraph isomorphism probability SIP = Pr(f ⊆iso g).
//
// One cell rule. SIP is the probability that some embedding of f in gc has
// every edge present, #P-hard in general, which is why the paper stores
// bounds (§4.1's SIPBound and OPT-SIPBound). This index stores SIP itself
// where it is cheap: a cell whose embedding list is complete — fewer than
// maxEmbeddings distinct edge sets — and whose variable elimination fits
// exactBudget holds Lower = Upper = SIP = 1 − prob.Engine.ProbNoClause over
// one all-present clause per embedding. On the ledger and probe corpora
// every cell is one. Any other cell holds two elementary bounds:
//
//   - Lower: the listed sets' exact union where its elimination fits, else
//     the largest single embedding's probability;
//   - Upper: the union bound min(1, Σ Pr(embedding)) for a complete list,
//     and 1 for a capped one, whose unlisted embeddings nothing bounds.
//
// Both hold for any model, and Lower ≤ Upper bitwise. README's figure notes
// record what the paper's bound families cost against exact cells.
//
// The build has no knobs: its caps, maxEmbeddings and exactBudget, are
// constants, and the columns run on the shared pool at GOMAXPROCS workers.
package pmi

import (
	"context"
	"fmt"

	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/pool"
	"probgraph/internal/prob"
)

// maxEmbeddings caps the embeddings listed per cell; a list that reaches
// it may be incomplete.
const maxEmbeddings = 24

// Options is the PMI part of a database's build options. The build reads
// none of it; it stays in the persisted options blob for the benchmark's
// corpus recipe, which sets both fields.
type Options struct {
	// Optimize is read by nothing. It selected OPT-SIPBound families when
	// the index computed the paper's §4.1 bounds.
	Optimize bool
	// Seed is read by nothing: the build is exact and draws no samples.
	Seed int64
}

// NewOptions returns the default options.
func NewOptions() Options {
	return Options{Optimize: true}
}

// Entry is one cell of the matrix: SIP bounds of feature f in graph g,
// with Lower ≤ Upper bitwise. An exact cell has Lower == Upper.
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
func Build(db []*prob.PGraph, engines []*prob.Engine, feats []*feature.Feature) (*Index, error) {
	if len(db) != len(engines) {
		return nil, fmt.Errorf("pmi: %d graphs but %d engines", len(db), len(engines))
	}
	idx := &Index{cols: make([][]Entry, len(db))}
	for _, f := range feats {
		idx.Features = append(idx.Features, f.G)
	}

	// Invert feature support: a feature the miner found no embedding of is
	// not searched again.
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
		idx.cols[gi], err = idx.column(engines[gi], gi, func(fi int) bool { return !contained[fi][gi] })
		return err
	})
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// exactBudget is the compiled cost, in the units of
// prob.Engine.ProbNoClause, up to which a cell's SIP is eliminated exactly;
// a dearer cell holds the elementary bounds. Measured on the ledger corpus
// (bench/corpus.go: 120 graphs, 79 features, 2 963 contained cells) and on
// the at-size probe corpus (GeneratePPI, 60 graphs of 100–110 vertices, 6
// organisms, correlated, seed 3, the ledger's mining options: 256
// features, 10 550 cells), minimum of 7 runs each on 2 vCPUs: no list was
// capped, the longest held 7 and 20 embeddings, and the dearest cell cost
// 278 and 432 units. In every cost band the elimination took 0.01–0.38 of
// the time of the §4.1 families it replaced, medians 1.2 against 8.7 µs at
// 2^4–2^5 units and 11 against 2 774 µs at 2^8–2^9 on the probe. The budget
// sits far above both corpora: at the kernel's ≈ 0.3–0.45 ns per unit
// between 2^15 and 2^18 units (core.eliminationBudget; ≈ 1.2–1.4 ns while
// clause factors scanned every entry of their step) a cell at 2^16 units
// takes ≈ 30 µs.
const exactBudget = 1 << 16

// cell computes the PMI entry of feature f in eng's graph from one search:
// f is contained exactly when iso.EdgeSets lists an embedding, and the
// list is the cell rule's input. An empty list is the paper's ⟨0⟩.
func cell(eng *prob.Engine, f *graph.Graph) (Entry, error) {
	embs := iso.EdgeSets(f, eng.PGraph().G, nil, maxEmbeddings)
	if len(embs) == 0 {
		return Entry{}, nil
	}
	return entry(eng, embs, exactBudget)
}

// entry computes the cell from the embedding list embs by the package's
// one rule, eliminating within budget. A list of maxEmbeddings sets may be
// capped: the unlisted embeddings can only raise SIP, so its Lower is
// still read from the listed sets, but nothing bounds them from above, so
// its Upper is 1.
func entry(eng *prob.Engine, embs []graph.EdgeSet, budget int) (Entry, error) {
	complete := len(embs) < maxEmbeddings
	clauses := prob.PresentClauses(embs)
	none, exact, err := eng.ProbNoClause(clauses, budget)
	if err != nil {
		return Entry{}, err
	}
	if exact {
		e := Entry{Contained: true, Lower: 1 - none, Upper: 1}
		if complete {
			e.Upper = e.Lower
		}
		return e, nil
	}
	// Over budget: the largest single embedding below, the union bound
	// above. A float sum of non-negative terms is at least each term, so
	// Lower ≤ Upper survives rounding.
	ps := make([]float64, len(clauses))
	if err := eng.ProbLitsBatch(clauses, ps); err != nil {
		return Entry{}, err
	}
	largest, sum := 0.0, 0.0
	for _, p := range ps {
		largest, sum = max(largest, p), sum+p
	}
	e := Entry{Contained: true, Lower: min(largest, 1), Upper: 1}
	if complete {
		e.Upper = min(sum, 1)
	}
	return e, nil
}

// Lookup returns the row Dg of the paper: for each feature, its entry in
// gc(gi), indexed by feature. The slice is the index's own column, read in
// place: a published column is never written, and a freed column is empty.
// Callers must not write it.
func (idx *Index) Lookup(gi int) []Entry {
	return idx.cols[gi]
}

// LookupInto is Lookup copied into buf (reset to length 0 first),
// allocating only when buf's capacity is short. Its one caller is the
// benchmark ledger, which times the copy as pmi.lookup_us.
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
