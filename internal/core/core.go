// Package core assembles the paper's full T-PS query pipeline: structural
// pruning over the certain graphs, probabilistic pruning through the PMI
// index (SSPBound / OPT-SSPBound over its cells, exact SIP wherever the
// pmi package can afford it), and Monte-Carlo or exact verification
// (paper §1.2).
//
// The database is a first-class mutable store built from immutable,
// generation-numbered views: queries are methods of a View pinned with
// Database.View and run against it untouched while AddGraph / RemoveGraph /
// ReplaceGraph build the next view copy-on-write under a writer lock —
// mutations never block readers and readers never block mutations. See
// the View type for the full contract, and plan.go for the front half
// every query method shares.
//
// Every threshold query runs one candidate loop, evaluate: QueryCtx and the
// batch members materialize its outcome, QueryStream passes each admitted
// match on through its emit hook. Every parallel loop takes the failure
// rule of pool.ForEachIndexCtx — the lowest failing item's error, the
// serial run's at any worker count.
//
// The ranked query's early-termination rule is written once, as topkRule:
// View.QueryTopKWalk steps it over its own schedule — on a fleet, each
// shard over its range's — and ReplayWalks over the merged walks of a
// fleet, which internal/cluster's coordinator calls; that is why the two
// rankings are bitwise the same.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"probgraph/internal/feature"
	"probgraph/internal/graph"
	"probgraph/internal/pmi"
	"probgraph/internal/pool"
	"probgraph/internal/prob"
	"probgraph/internal/simsearch"
)

// BuildOptions configures database and index construction with the
// paper's knobs. Every other cap of the build is a constant in the package
// that reads it, and every build stage runs at GOMAXPROCS workers.
type BuildOptions struct {
	// Feature mining knobs (paper Algorithm 4: α, β, γ, maxL).
	Feature feature.Options
	// PMI options are read by nothing: every cell follows the pmi
	// package's one rule. They are kept in the persisted options blob.
	PMI pmi.Options
}

// DefaultBuildOptions returns the paper's default parameter setting scaled
// to this implementation.
func DefaultBuildOptions() BuildOptions {
	return BuildOptions{PMI: pmi.NewOptions()}
}

// BuildStats records index construction cost (Figure 12c/12d metrics).
type BuildStats struct {
	Features       int
	FeatureTime    time.Duration
	PMITime        time.Duration
	StructTime     time.Duration
	IndexSizeBytes int
}

// View is one immutable, generation-numbered state of a Database, and the
// one place queries live: every query method is a method of View taking a
// context, so a query observes one consistent database no matter how
// many mutations commit while it runs — and its results are
// bitwise-identical to running the same query before the mutation.
//
// Slots and tombstones: graphs occupy slots 0..Len()-1, and a slot's
// index is the graph index queries report. RemoveGraph tombstones a slot
// — its graph, engine and PMI column are released, the structural index
// keeps its count row and the scan skips it — so surviving indices are
// stable across removals. Which slots are live is recorded once, in the
// structural index's dead mask (simsearch.Index); Live, NumLive and
// Tombstones read it. Compact drops the
// tombstones and renumbers the survivors contiguously (in slot order),
// realigning per-candidate query seeding with a fresh NewDatabase over
// the surviving graphs; the mined feature vocabulary is carried over
// (remapped), not re-mined, so only the PMI pruning phase can differ
// from a truly fresh build — never the answer set it is sound against.
//
// A View is safe for unbounded concurrent use and never changes; pin one
// with Database.View to run a multi-query analysis against a single
// consistent state.
type View struct {
	// Generation numbers this view; NewDatabase starts at 1 and every
	// committed mutation increments it.
	Generation uint64

	Graphs []*prob.PGraph
	// Certain[i] aliases Graphs[i].G; the snapshot loader re-derives it.
	Certain []*graph.Graph

	// engines[i] is slot i's engine cell, read through View.Engine; nil
	// for a slot RemoveGraph tombstoned. Engines are not persisted: a
	// snapshot load starts with empty cells (junction-tree construction is
	// deterministic).
	engines []*engineCell

	// Features is the mined vocabulary the PMI indexes. Each Support is the
	// miner's build-time record: AddGraph, ReplaceGraph and RemoveGraph do
	// not maintain it (a projection only renumbers it), and nothing after
	// pmi.Build reads it.
	Features []*feature.Feature
	// PMI is never nil: NewDatabase always builds it and a snapshot must
	// carry it.
	PMI *pmi.Index
	// Struct is never nil: besides filtering, it records which slots are
	// live.
	Struct *simsearch.Index

	// Build holds build-time metrics, not state; a snapshot load refills
	// only the fields queries read.
	Build BuildStats
	opt   BuildOptions

	// gids maps this view's slots to the global graph ids of the
	// database it was partitioned from (nil = identity: slot i is global
	// id i). Range views (View.Range, Database.Partition, SaveRange) set
	// it so per-candidate query seeding — and therefore every verdict and
	// SSP estimate — is computed from the global id, which is what makes
	// a sharded evaluation bitwise-identical to the full database's.
	// Views with a non-nil gids are read-only: mutations would desync the
	// map (see ErrPartitioned).
	gids []int
}

// Len returns the number of slots, tombstoned ones included — the
// exclusive upper bound of graph indices.
func (v *View) Len() int { return len(v.Graphs) }

// NumLive returns the number of live (non-tombstoned) graphs.
func (v *View) NumLive() int { return len(v.Graphs) - v.Struct.Tombstones() }

// Tombstones returns the number of tombstoned slots.
func (v *View) Tombstones() int { return v.Struct.Tombstones() }

// Live reports whether slot gi holds a live graph.
func (v *View) Live(gi int) bool { return v.Struct.Live(gi) }

// liveSlots returns the live slots, ascending.
func (v *View) liveSlots() []int {
	var out []int
	for gi := range v.Graphs {
		if v.Live(gi) {
			out = append(out, gi)
		}
	}
	return out
}

// Options returns the build options the database was constructed with.
func (v *View) Options() BuildOptions { return v.opt }

// Partitioned reports whether this view is a range partition of a larger
// database (built by Range / Partition / a SaveRange snapshot). Partitioned
// views are read-only.
func (v *View) Partitioned() bool { return v.gids != nil }

// GID translates slot gi of this view to its global graph id: the slot it
// occupied in the database the view was partitioned from. For ordinary
// (non-partitioned) views it is the identity. All per-candidate seeding
// routes through GID, which is what keeps a partition's verdicts and SSP
// estimates bitwise-identical to the full database's.
func (v *View) GID(gi int) int {
	if v.gids == nil {
		return gi
	}
	return v.gids[gi]
}

// Database is an indexed probabilistic graph database ready for T-PS
// queries. It holds the current View behind an atomic pointer; queries pin
// it wait-free while the mutation API (AddGraph, RemoveGraph,
// ReplaceGraph, Compact) builds successor views under the writer lock.
// All methods are safe for concurrent use.
type Database struct {
	cur atomic.Pointer[View]

	// mu is the writer lock: it serializes mutations (which read the
	// current view, build its copy-on-write successor, and publish it)
	// and is never taken by a query — readers never block on a writer.
	mu sync.Mutex

	// compactThreshold (guarded by mu) triggers automatic compaction
	// after a removal once Tombstones() > threshold × Len(); a value not
	// > 0 disables auto-compaction (Compact stays available).
	compactThreshold float64
}

// NewDatabase indexes the given probabilistic graphs: it builds per-graph
// inference engines, mines PMI features, constructs the PMI, and prepares
// the structural filter. The database starts at generation 1.
func NewDatabase(graphs []*prob.PGraph, opt BuildOptions) (*Database, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("core: empty database")
	}
	v := &View{Generation: 1, Graphs: graphs, opt: opt}
	engines := make([]*prob.Engine, len(graphs))
	err := pool.ForEachIndexCtx(context.Background(), len(graphs), pool.Normalize(-1, len(graphs)), func(i int) error {
		eng, err := prob.NewEngine(graphs[i])
		if err != nil {
			return fmt.Errorf("core: graph %d: %w", i, err)
		}
		engines[i] = eng
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pg := range graphs {
		v.engines = append(v.engines, newEngineCell(engines[i]))
		v.Certain = append(v.Certain, pg.G)
	}

	t0 := time.Now()
	sf := simsearch.DefaultFeatures(v.Certain, 0)
	v.Struct = simsearch.BuildIndex(v.Certain, sf)
	v.Build.StructTime = time.Since(t0)

	t1 := time.Now()
	v.Features = feature.Mine(v.Certain, opt.Feature)
	v.Build.FeatureTime = time.Since(t1)
	v.Build.Features = len(v.Features)

	t2 := time.Now()
	idx, err := pmi.Build(graphs, engines, v.Features)
	if err != nil {
		return nil, fmt.Errorf("core: building PMI: %w", err)
	}
	v.PMI = idx
	v.Build.PMITime = time.Since(t2)
	v.Build.IndexSizeBytes = idx.SizeBytes()
	db := &Database{}
	db.cur.Store(v)
	return db, nil
}

// newFromView wraps a fully built view (snapshot loads) in a Database.
func newFromView(v *View) *Database {
	db := &Database{}
	db.cur.Store(v)
	return db
}

// View pins the current view: an immutable snapshot of the database the
// caller can query for as long as it likes, unaffected by concurrent
// mutations. Queries live on the View — db.View().QueryCtx(ctx, q, opt) —
// so every call states which generation it reads.
func (db *Database) View() *View { return db.cur.Load() }

// Len returns the current number of slots (tombstoned ones included); see
// View.Len.
func (db *Database) Len() int { return db.View().Len() }

// Build returns the current view's construction statistics.
func (db *Database) Build() BuildStats { return db.View().Build }

// SetCompactThreshold configures automatic compaction: after a removal
// leaves more than frac × Len() slots tombstoned, the removal compacts
// the database in the same commit (one extra generation). A frac that is
// not > 0 (NaN included) disables auto-compaction; Compact remains
// available either way. Note that compaction renumbers the surviving
// graphs.
func (db *Database) SetCompactThreshold(frac float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.compactThreshold = frac
}

// ErrNoSuchGraph marks mutations and per-slot verification calls
// (VerifySSP, VerifySSPBatch, ExactSSPByEnumeration) addressing a slot that
// does not exist or was already removed. Callers (the HTTP layer) use
// errors.Is to map it to a not-found response, distinct from evaluation
// failures.
var ErrNoSuchGraph = errors.New("no such graph")

// ErrPartitioned marks mutations attempted on a partitioned database (one
// loaded from a SaveRange snapshot or built by Partition). Partitions are
// read-only serving replicas: a local mutation would desynchronize the
// global-id map — and with it the seeding contract that keeps shard
// answers bitwise-identical to the full database — so the owner of the
// full database must mutate and re-partition instead.
var ErrPartitioned = errors.New("database is a read-only partition")

// Mutation describes one committed mutation: the slot it targeted (or
// created), the generation transition, the resulting shape, and whether
// the mutation triggered auto-compaction (renumbering graph indices).
// Every field is captured inside the writer lock, so the record is
// consistent even under concurrent mutations.
type Mutation struct {
	Index         int
	OldGeneration uint64
	NewGeneration uint64
	LiveGraphs    int
	Tombstoned    int
	Compacted     bool
	// CompactedSlots is the number of tombstoned slots reclaimed when
	// Compacted is true (the shrink in View.Len), 0 otherwise.
	CompactedSlots int
}

// commit runs one mutation under the writer lock: it refuses a
// partitioned database, checks the addressed slot, and asks next for the
// successor of the current view — the current view itself when there is
// nothing to do, which publishes nothing. A mutation that addresses an
// existing slot (RemoveGraph, ReplaceGraph) names it with verb and id, and
// the slot must be live; one that addresses none (AddGraph, Compact)
// passes an empty verb, and its record's Index is the slot an append
// creates. The successor gets the next generation; one that tombstoned a
// slot then compacts in the same commit (another generation) once the
// threshold is crossed.
func (db *Database) commit(verb string, id int, next func(v *View) (*View, error)) (Mutation, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.cur.Load()
	if v.Partitioned() {
		return Mutation{}, fmt.Errorf("core: %w", ErrPartitioned)
	}
	m := Mutation{Index: id, OldGeneration: v.Generation}
	if verb == "" {
		m.Index = v.Len()
	} else if err := v.checkLive(id, verb); err != nil {
		return Mutation{}, err
	}
	nv, err := next(v)
	if err != nil {
		return Mutation{}, err
	}
	if nv != v {
		nv.Generation = v.Generation + 1
		if nv.Tombstones() > v.Tombstones() && db.compactThreshold > 0 &&
			float64(nv.Tombstones()) > db.compactThreshold*float64(nv.Len()) {
			cv := nv.project(nv.liveSlots())
			cv.Generation = nv.Generation + 1
			m.Compacted, m.CompactedSlots = true, nv.Len()-cv.Len()
			nv = cv
		}
		db.cur.Store(nv)
	}
	m.NewGeneration, m.LiveGraphs, m.Tombstoned = nv.Generation, nv.NumLive(), nv.Tombstones()
	return m, nil
}

// AddGraph inserts one probabilistic graph incrementally: it builds the
// inference engine, extends the structural filter, and appends the
// graph's column to the PMI — all copy-on-write, so queries running
// against the pre-insertion view are never blocked or disturbed. The
// mined feature vocabulary is kept (standard incremental-index trade-off;
// rebuild with NewDatabase when the data distribution drifts). The new
// graph's slot index and the new generation are returned.
//
// AddGraph is atomic: the fallible steps (engine construction, PMI column
// computation) run before the successor view is published, so a failed
// call leaves the database — and every already-pinned view — exactly as
// it was.
func (db *Database) AddGraph(pg *prob.PGraph) (int, uint64, error) {
	m, err := db.AddGraphInfo(pg)
	return m.Index, m.NewGeneration, err
}

// AddGraphInfo is AddGraph returning the full mutation record.
func (db *Database) AddGraphInfo(pg *prob.PGraph) (Mutation, error) {
	// Engine construction depends only on the incoming graph, so it runs
	// before the writer lock — concurrent mutations serialize only on the
	// view-dependent index work.
	eng, err := prob.NewEngine(pg)
	if err != nil {
		return Mutation{}, fmt.Errorf("core: adding graph: %w", err)
	}
	return db.commit("", 0, func(v *View) (*View, error) {
		npmi, err := v.PMI.WithColumn(pg, eng)
		if err != nil {
			return nil, err
		}
		nv := *v
		nv.PMI = npmi
		nv.Build.IndexSizeBytes = npmi.SizeBytes()
		nv.Graphs = append(v.Graphs, pg)
		nv.engines = append(v.engines, newEngineCell(eng))
		nv.Certain = append(v.Certain, pg.G)
		nv.Struct = v.Struct.WithGraph(pg.G)
		return &nv, nil
	})
}

// RemoveGraph tombstones slot id: the graph disappears from every
// subsequent query (already-pinned views still see it) and its data is
// released, while its structural count row stays in place, skipped by the
// scan, until Compact drops it.
// Surviving graph indices are unchanged. The new generation is returned.
func (db *Database) RemoveGraph(id int) (uint64, error) {
	m, err := db.RemoveGraphInfo(id)
	return m.NewGeneration, err
}

// RemoveGraphInfo is RemoveGraph returning the full mutation record —
// including whether the removal crossed the compaction threshold and
// renumbered the survivors.
func (db *Database) RemoveGraphInfo(id int) (Mutation, error) {
	return db.commit("removing", id, func(v *View) (*View, error) {
		// Dead slots are never queried: the successor is data-free for the
		// slot — graph, JPTs and engine cell let go, the PMI column freed
		// (pinned views keep theirs) — or an uncompacted server retains
		// every graph it ever held. A snapshot of the successor writes the
		// empty graph in the slot.
		nv := *v
		nv.Graphs = cloneWith(v.Graphs, id, deadGraph)
		nv.Certain = cloneWith(v.Certain, id, deadGraph.G)
		nv.engines = cloneWith(v.engines, id, nil)
		nv.Struct = v.Struct.WithTombstones(id)
		nv.PMI = v.PMI.WithFreedColumns(id)
		return &nv, nil
	})
}

// ReplaceGraph swaps the graph in live slot id for pg — the re-scored-JPT
// case: same slot index, fresh engine, recomputed structural counts and
// PMI column, all copy-on-write. The new generation is returned.
func (db *Database) ReplaceGraph(id int, pg *prob.PGraph) (uint64, error) {
	m, err := db.ReplaceGraphInfo(id, pg)
	return m.NewGeneration, err
}

// ReplaceGraphInfo is ReplaceGraph returning the full mutation record.
func (db *Database) ReplaceGraphInfo(id int, pg *prob.PGraph) (Mutation, error) {
	// As in AddGraphInfo, the engine build is view-independent and stays
	// outside the writer lock.
	eng, err := prob.NewEngine(pg)
	if err != nil {
		return Mutation{}, fmt.Errorf("core: replacing graph %d: %w", id, err)
	}
	return db.commit("replacing", id, func(v *View) (*View, error) {
		npmi, err := v.PMI.WithReplacedColumn(id, pg, eng)
		if err != nil {
			return nil, err
		}
		nv := *v
		nv.PMI = npmi
		nv.Build.IndexSizeBytes = npmi.SizeBytes()
		nv.Graphs = cloneWith(v.Graphs, id, pg)
		nv.engines = cloneWith(v.engines, id, newEngineCell(eng))
		nv.Certain = cloneWith(v.Certain, id, pg.G)
		nv.Struct = v.Struct.WithReplaced(id, pg.G)
		return &nv, nil
	})
}

// Compact rewrites the database without its tombstoned slots: survivors
// keep their relative order and are renumbered contiguously, the
// structural index and the PMI drop the dead entries, and feature supports
// are remapped.
// After Compact, per-candidate query seeding aligns with a fresh
// NewDatabase over the surviving graphs (pruning-bypassed queries answer
// bitwise-identically to one); the mined vocabulary is carried over, not
// re-mined. A database without tombstones is returned unchanged (same
// generation).
func (db *Database) Compact() (uint64, error) {
	m, err := db.commit("", 0, func(v *View) (*View, error) {
		if v.Tombstones() == 0 {
			return v, nil
		}
		return v.project(v.liveSlots()), nil
	})
	return m.NewGeneration, err
}

// deadGraph occupies every slot RemoveGraph tombstones.
var deadGraph = prob.MustNew(graph.Empty, nil)

// checkLive validates a caller-supplied slot. Both failure modes wrap
// ErrNoSuchGraph.
func (v *View) checkLive(id int, verb string) error {
	if id < 0 || id >= len(v.Graphs) {
		return fmt.Errorf("core: %s graph %d: %w: index out of range [0,%d)", verb, id, ErrNoSuchGraph, len(v.Graphs))
	}
	if !v.Live(id) {
		return fmt.Errorf("core: %s graph %d: %w: already removed", verb, id, ErrNoSuchGraph)
	}
	return nil
}

// cloneWith returns a copy of xs with xs[i] = x.
func cloneWith[T any](xs []T, i int, x T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	out[i] = x
	return out
}
