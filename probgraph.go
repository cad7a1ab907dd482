// Package probgraph is a library for threshold-based subgraph similarity
// search over large probabilistic graph databases with correlated edge
// existence, reproducing Yuan, Wang, Chen and Wang, "Efficient Subgraph
// Similarity Search on Large Probabilistic Graph Databases", PVLDB 5(9),
// VLDB 2012.
//
// A probabilistic graph is a labeled undirected graph whose edges exist
// with probabilities given jointly — joint probability tables (JPTs) over
// local "neighbor edge" sets capture correlations such as co-occurring
// protein interactions or congestion spreading between adjacent road
// segments. A T-PS query asks: given a query graph q, an edge-distance
// tolerance δ and a probability threshold ε, which database graphs g have
//
//	Pr( dis(q, world of g) ≤ δ )  ≥  ε ?
//
// Computing that probability is #P-complete, so the engine answers with the
// paper's filter-and-verify pipeline: structural pruning on the certain
// graphs, probabilistic pruning through the PMI index (feature-wise lower
// and upper bounds on subgraph isomorphism probability, combined per query
// by greedy set cover into an upper bound and by the best contained
// feature into a lower one), and a Karp–Luby
// Monte-Carlo verifier backed by an exact junction-tree inference engine.
//
// # Quick start
//
//	b := probgraph.NewGraphBuilder("g1")
//	u := b.AddVertex("A")
//	v := b.AddVertex("B")
//	e, _ := b.AddEdge(u, v, "")
//	pg, _ := probgraph.NewIndependentPGraph(b.Build(),
//	    map[probgraph.EdgeID]float64{e: 0.8})
//
//	db, _ := probgraph.NewDatabase([]*probgraph.PGraph{pg},
//	    probgraph.DefaultBuildOptions())
//	res, _ := db.View().QueryCtx(ctx, query,
//	    probgraph.QueryOptions{Epsilon: 0.5, Delta: 1})
//
// # Queries, contexts and streaming
//
// Queries are methods of a DatabaseView — Database.View pins the current
// one — and each exists in one form, which takes a context: QueryCtx,
// QueryTopKCtx, QueryBatchCtx, QueryStream. ctx is threaded through the
// whole pipeline: cancellation (or a deadline) is checked before the
// structural scan, per exact confirmation, and per candidate evaluation,
// so a cancelled query returns ctx.Err() promptly, leaks no goroutines,
// and never returns a partial result. A caller with nothing to cancel
// passes context.Background().
//
// QueryStream delivers answers incrementally: it yields each verified
// Match the moment the prune+verify stage admits it, in arrival order, as
// an iter.Seq2[Match, error]. The collected stream, re-sorted by graph
// index, is bitwise-identical to QueryCtx's answer set and SSP estimates
// at every worker count — arrival order is the only scheduling-dependent
// aspect. Breaking out of the loop early cancels and joins the internal
// workers before the iterator returns.
//
// # Concurrency
//
// The pipeline is embarrassingly parallel across database graphs, and the
// engine exploits that: QueryOptions.Concurrency bounds a worker pool that
// confirms the structural filter's survivors and evaluates candidates
// (bound combination and verification)
// in parallel, both in QueryCtx/QueryTopKCtx and across the queries of
// QueryBatchCtx. Results are deterministic at every worker count — all per-candidate
// randomness is seeded from QueryOptions.Seed and the candidate's graph
// index, never from scheduling order — so a parallel run returns exactly
// what the serial run would.
//
// # Generations and mutation
//
// A Database is a first-class mutable store built from immutable,
// generation-numbered views. A query runs against the view it was called
// on, untouched, while AddGraph, RemoveGraph, and ReplaceGraph build the
// next view copy-on-write under a writer lock — mutations never block
// queries, queries never block mutations, and a query started before a
// mutation answers bitwise-identically to one run before it. Each mutator
// returns the new generation number.
//
// Removal is tombstone-based: the slot's structural count row stays in
// place, skipped by the scan, its PMI column is freed, and surviving graph
// indices are stable.
// Compact rewrites the indexes without the tombstones (renumbering
// survivors); SetCompactThreshold arms automatic compaction. Keep one
// pinned view to run a multi-query analysis against one frozen state.
//
// See the examples directory for complete programs: examples/quickstart
// walks the paper's own Figure 1 instance, examples/ppi searches a
// synthetic protein-interaction workload and compares the correlated model
// against the independent-edge baseline, and examples/roadnet mines
// reliable route patterns in a congestion-correlated road grid.
package probgraph

import (
	"io"
	"math/rand"

	"probgraph/internal/core"
	"probgraph/internal/dataset"
	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/pmi"
	"probgraph/internal/prob"
	"probgraph/internal/verify"
)

// Core graph model.
type (
	// Graph is an immutable labeled undirected graph.
	Graph = graph.Graph
	// GraphBuilder assembles a Graph.
	GraphBuilder = graph.Builder
	// Label is a vertex or edge label.
	Label = graph.Label
	// VertexID addresses a vertex within one graph.
	VertexID = graph.VertexID
	// EdgeID addresses an edge within one graph.
	EdgeID = graph.EdgeID
	// EdgeSet is a bitset over a graph's edges (possible worlds,
	// embeddings).
	EdgeSet = graph.EdgeSet
)

// Probabilistic model.
type (
	// PGraph is a probabilistic graph: certain structure plus JPT factors.
	PGraph = prob.PGraph
	// JPT is a joint probability table over a neighbor-edge set.
	JPT = prob.JPT
	// InferenceEngine performs exact probability queries and world
	// sampling over one PGraph.
	InferenceEngine = prob.Engine
)

// Database and queries.
type (
	// Database is an indexed probabilistic graph database.
	Database = core.Database
	// DatabaseView is one immutable, generation-numbered state of a
	// Database: Database.View pins the current one, the query methods and
	// the state they read (Graphs, PMI, ...) live on it, and no mutation
	// ever changes a pinned view.
	DatabaseView = core.View
	// BuildOptions configures indexing (feature mining α/β/γ/maxL, PMI
	// construction, OPT-SIPBound vs SIPBound).
	BuildOptions = core.BuildOptions
	// QueryOptions configures one T-PS query (ε, δ, OPT-SSPBound vs
	// SSPBound, verifier choice, Concurrency worker-pool bound).
	QueryOptions = core.QueryOptions
	// Result is a query outcome with per-phase statistics.
	Result = core.Result
	// QueryStats instruments the pipeline phases.
	QueryStats = core.Stats
	// VerifierKind selects SMP, Exact, or no verification.
	VerifierKind = core.VerifierKind
	// VerifyOptions tunes the SMP estimator.
	VerifyOptions = verify.Options
	// FeatureOptions are the miner knobs (paper Algorithm 4).
	FeatureOptions = feature.Options
	// PMIOptions are the index construction knobs (paper §4.1).
	PMIOptions = pmi.Options
)

// Verifier kinds.
const (
	// VerifierSMP is the paper's Algorithm 5 Monte-Carlo sampler.
	VerifierSMP = core.VerifierSMP
	// VerifierExact is the Equation 21 inclusion–exclusion baseline.
	VerifierExact = core.VerifierExact
	// VerifierNone stops after pruning.
	VerifierNone = core.VerifierNone
)

// NewGraphBuilder returns a builder for a graph with the given name.
func NewGraphBuilder(name string) *GraphBuilder { return graph.NewBuilder(name) }

// NewPGraph validates and assembles a probabilistic graph from a certain
// graph and JPT factors. Edges not covered by any JPT are certain.
func NewPGraph(g *Graph, jpts []JPT) (*PGraph, error) { return prob.New(g, jpts) }

// NewIndependentPGraph builds a probabilistic graph whose listed edges
// exist independently with the given probabilities (the paper's IND
// baseline model).
func NewIndependentPGraph(g *Graph, edgeProb map[EdgeID]float64) (*PGraph, error) {
	return prob.NewIndependent(g, edgeProb)
}

// NewInferenceEngine builds an exact inference engine over pg: partition
// function, conjunction probabilities, marginals, and exact world sampling.
func NewInferenceEngine(pg *PGraph) (*InferenceEngine, error) { return prob.NewEngine(pg) }

// NewDatabase indexes probabilistic graphs for T-PS queries: it builds
// per-graph inference engines, mines PMI features, constructs the PMI, and
// prepares the structural filter.
func NewDatabase(graphs []*PGraph, opt BuildOptions) (*Database, error) {
	return core.NewDatabase(graphs, opt)
}

// DefaultBuildOptions returns the paper's default configuration
// (OPT-SIPBound index, α=β=γ=0.15 mining thresholds).
func DefaultBuildOptions() BuildOptions { return core.DefaultBuildOptions() }

// Database.AddGraph (on the aliased core type) inserts one graph
// incrementally — engine, structural counts, and PMI column — without
// re-mining the feature vocabulary; Database.RemoveGraph tombstones a
// slot and Database.ReplaceGraph swaps a slot's graph in place (the
// re-scored-JPT case). Each returns the new generation; Database.Compact
// drops accumulated tombstones. All mutations are copy-on-write against
// immutable views, so none of them ever blocks a running query.
//
// DatabaseView.QueryBatchCtx answers many queries over one bounded worker
// pool of QueryOptions.Concurrency goroutines. Query i runs with the
// derived seed BatchSeed(Seed, i), so batching never changes an individual
// query's result.

// BatchSeed is the per-query seed QueryBatchCtx derives for the i-th query
// of a batch; running QueryCtx with it reproduces that batch member.
func BatchSeed(seed int64, i int) int64 { return core.BatchSeed(seed, i) }

// TopKItem is one ranked answer of DatabaseView.QueryTopKCtx: the k graphs
// with the highest subgraph similarity probability, verified in decreasing
// upper-bound order with bound-based early termination.
type TopKItem = core.TopKItem

// Match is one incremental answer of DatabaseView.QueryStream: the matching
// graph's database index and its SSP (-1 when the graph was admitted by a
// lower bound without re-estimation, mirroring Result.SSP). See the package
// comment's "Queries, contexts and streaming" section for the cancellation
// and determinism contracts.
type Match = core.Match

// PMIIndex is the probabilistic matrix index; DatabaseView.PMI holds it. It
// is persisted as part of the database snapshot (DatabaseView.SaveAs).
type PMIIndex = pmi.Index

// Dataset helpers.
type (
	// DatasetOptions shapes the synthetic PPI-like generator.
	DatasetOptions = dataset.PPIOptions
	// Dataset is a generated database with organism ground truth.
	Dataset = dataset.DB
)

// GeneratePPI synthesizes a PPI-like probabilistic graph database with
// organism families (see DESIGN.md for the substitution rationale).
func GeneratePPI(opt DatasetOptions) (*Dataset, error) { return dataset.GeneratePPI(opt) }

// IndependentCounterpart rebuilds a dataset with the same certain graphs
// whose edges exist independently with the correlated model's marginal
// probabilities — the clean IND baseline of the paper's Figure 14.
func IndependentCounterpart(db *Dataset) (*Dataset, error) {
	return dataset.IndependentCounterpart(db)
}

// GenerateRoadGrid builds a congestion-correlated road-grid probabilistic
// graph (the paper's road-network motivation).
func GenerateRoadGrid(n, m int, meanProb, boost float64, rng *rand.Rand) (*PGraph, error) {
	return dataset.GenerateRoadGrid(n, m, meanProb, boost, rng)
}

// ExtractQuery carves a connected query subgraph with the given edge count
// out of a certain graph.
func ExtractQuery(g *Graph, edges int, rng *rand.Rand) *Graph {
	return dataset.ExtractQuery(g, edges, rng)
}

// PaperFigure1 reconstructs the paper's running example: probabilistic
// graphs 001 and 002 and the query q.
func PaperFigure1() (g001, g002 *PGraph, q *Graph, err error) { return dataset.PaperFigure1() }

// SaveDataset writes a dataset in the text format understood by the cmd/
// tools; LoadDataset reads it back.
func SaveDataset(w io.Writer, db *Dataset) error { return dataset.Save(w, db) }

// LoadDataset reads a dataset written by SaveDataset.
func LoadDataset(r io.Reader) (*Dataset, error) { return dataset.Load(r) }

// LoadDatabase reads a full-database snapshot written by DatabaseView.SaveAs
// or Database.SaveFile (on the aliased core types), in either format: graphs, JPTs,
// mined features, structural filter, and PMI restore bitwise-identical,
// only the per-graph inference engines are rebuilt. No feature mining or
// bound computation runs, which is what lets a serving process
// (cmd/pgserve) start in parse time and answer queries exactly as the
// database that wrote the snapshot would.
func LoadDatabase(r io.Reader) (*Database, error) { return core.LoadDatabase(r) }

// SnapshotFormat selects the on-disk snapshot encoding for SaveFile and
// SaveAs (on the aliased core types): SnapshotText is the line-oriented
// pgsnap v5 format, SnapshotBinary the mmap-friendly v4 one — two
// renderings of the same sections. LoadDatabase and OpenSnapshot sniff the
// format, so readers never choose.
type SnapshotFormat = core.SnapshotFormat

const (
	SnapshotText   = core.SnapshotText
	SnapshotBinary = core.SnapshotBinary
)

// ParseSnapshotFormat reads a -format flag value, "text" or "binary".
func ParseSnapshotFormat(s string) (SnapshotFormat, error) { return core.ParseSnapshotFormat(s) }

// OpenSnapshot opens a snapshot file directly: binary (v4) snapshots are
// memory-mapped, so startup does no full-corpus parse and the page cache
// is shared across processes serving the same file; text snapshots fall
// back to LoadDatabase. Either way the database answers bitwise like the
// one that wrote the file.
func OpenSnapshot(path string) (*Database, error) { return core.OpenSnapshot(path) }

// PartitionRanges splits n database slots into the given number of
// contiguous [lo, hi) ranges, as evenly as possible — the canonical
// cluster partition rule behind Database.Partition / SaveRangeFile (also
// on the aliased core type) and pgproxy's sharded serving: each range is
// saved as a read-only partition snapshot whose queries answer
// bitwise-identically to the full database for the graphs it holds.
func PartitionRanges(n, shards int) ([][2]int, error) { return core.PartitionRanges(n, shards) }

// SaveGraph writes one certain graph in the line-oriented text codec (the
// format of pgsearch -qfile query files). Labels survive spaces, '#', and
// unicode via token escaping.
func SaveGraph(w io.Writer, g *Graph) error { return graph.Encode(w, g) }

// LoadGraphs reads all graphs from a stream of SaveGraph blocks.
func LoadGraphs(r io.Reader) ([]*Graph, error) {
	dec := graph.NewDecoder(r)
	var out []*Graph
	for {
		g, err := dec.Decode()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, g)
	}
}
