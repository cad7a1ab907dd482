// Package simsearch implements the structural pruning phase over the
// certain graphs Dc (paper §1.2 "Structural Pruning", Theorem 1): if q is
// not subgraph-similar to gc, then Pr(q ⊆sim g) = 0 and g is discarded
// before any probabilistic work.
//
// The filter reimplements the principle of Grafil (Yan/Yu/Han, SIGMOD'05 —
// the paper's reference [38]): deleting δ edges from q destroys a bounded
// number of feature embeddings, so a graph missing more feature occurrences
// than that budget cannot approximately contain q:
//
//	Σ_f max(0, c_q(f) − c_g(f))  ≤  T(δ) = Σ of the δ largest w(e),
//
// where c_x(f) counts embeddings of f in x (capped symmetrically, which
// preserves soundness) and w(e) is the number of feature embeddings of q
// through edge e. Graphs surviving the count filter are confirmed exactly to
// produce SCq: q ⊆sim gc is Definition 8's dis(q, gc) ≤ δ, decided by one
// budgeted isomorphism search per candidate (iso.ExistsWithin) — by Lemma 1
// the same answer as "some rq of the relaxed set U embeds in gc", without
// deriving U or matching its members one by one.
//
// The counts live in one flat |D|×|F| matrix and the filter is one pass
// over its rows that reads only the columns of features q embeds
// (CandidatesCtx). The matrix is the whole index: mutations append, patch
// or drop rows, and snapshots carry it and nothing derived from it
// (snap.go).
package simsearch

import (
	"context"
	"slices"
	"sort"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
	"probgraph/internal/obs"
	"probgraph/internal/pool"
)

// CountCap bounds per-feature embedding counts; both sides of the filter
// inequality are capped identically, which keeps the filter sound.
const CountCap = 64

// Index holds the counting features and the per-graph feature occurrence
// counts the filter scans.
//
// An Index is immutable once published: mutation goes through the
// copy-on-write constructors WithGraph, WithTombstones, WithReplaced and
// Select, each returning a new Index that shares every untouched slice
// with its predecessor. Queries running against an older Index therefore
// never observe a mutation — the generation-view machinery in
// internal/core relies on exactly that.
//
// The dead mask is the database's one record of which slots are live:
// internal/core's View.Live, NumLive and Tombstones read it, because the
// count scan is the one reader that must skip dead rows on every query.
// WithTombstones marks slots dead and lets their graphs go, the count rows
// stay in place, and Select keeps the slots a compaction or a range
// partition retains, renumbered.
type Index struct {
	Features []*graph.Graph
	// counts is the dense count matrix flattened row-major: graph gi's
	// row is counts[gi*nf : (gi+1)*nf] with nf = len(Features). The flat
	// slab is what pgsnap v4 maps straight off disk; a slab loaded that
	// way is read-only, which the copy-on-write discipline already
	// guarantees (mutations append past len — reallocating, since a
	// mapped slab has len == cap — or clone before writing).
	counts []int32
	dbc    []*graph.Graph

	// dead marks tombstoned slots (nil = all live); tombs counts them.
	// Dead slots keep their count row but are filtered out of every
	// candidate list.
	dead  []bool
	tombs int
}

// DefaultFeatures extracts the structural counting features from the
// database: the distinct labeled edges and distinct labeled wedges (paths
// of two edges), capped at maxFeatures (0 = 128).
func DefaultFeatures(dbc []*graph.Graph, maxFeatures int) []*graph.Graph {
	if maxFeatures <= 0 {
		maxFeatures = 128
	}
	seen := make(map[string]bool)
	var out []*graph.Graph
	add := func(g *graph.Graph) {
		if len(out) >= maxFeatures {
			return
		}
		code := graph.CanonicalCode(g)
		if !seen[code] {
			seen[code] = true
			out = append(out, g)
		}
	}
	for _, g := range dbc {
		if len(out) >= maxFeatures {
			break
		}
		for _, e := range g.Edges() {
			b := graph.NewBuilder("se")
			u := b.AddVertex(g.VertexLabel(e.U))
			v := b.AddVertex(g.VertexLabel(e.V))
			b.MustAddEdge(u, v, e.Label)
			add(b.Build())
		}
		// Wedges centered at each vertex.
		for v := 0; v < g.NumVertices(); v++ {
			nb := g.Neighbors(graph.VertexID(v))
			for i := 0; i < len(nb) && len(out) < maxFeatures; i++ {
				for j := i + 1; j < len(nb); j++ {
					b := graph.NewBuilder("sw")
					c := b.AddVertex(g.VertexLabel(graph.VertexID(v)))
					x := b.AddVertex(g.VertexLabel(nb[i].To))
					y := b.AddVertex(g.VertexLabel(nb[j].To))
					b.MustAddEdge(c, x, g.EdgeLabel(nb[i].Edge))
					b.MustAddEdge(c, y, g.EdgeLabel(nb[j].Edge))
					add(b.Build())
				}
			}
		}
	}
	return out
}

// BuildIndex counts feature embeddings in every certain graph, one row per
// graph on GOMAXPROCS workers, each into its own slice of the slab. The
// loop cannot fail: its context is never cancelled and no row errs.
func BuildIndex(dbc []*graph.Graph, features []*graph.Graph) *Index {
	ix := &Index{Features: features, dbc: dbc, counts: make([]int32, len(dbc)*len(features))}
	_ = pool.ForEachIndexCtx(context.Background(), len(dbc), pool.Normalize(-1, len(dbc)), func(gi int) error {
		copy(ix.row(gi), ix.countRow(dbc[gi]))
		return nil
	})
	return ix
}

// row returns graph gi's slice of the flat count slab.
func (ix *Index) row(gi int) []int32 {
	nf := len(ix.Features)
	return ix.counts[gi*nf : (gi+1)*nf]
}

// countRow computes one graph's capped feature-count row.
func (ix *Index) countRow(g *graph.Graph) []int32 {
	row := make([]int32, len(ix.Features))
	for fi, f := range ix.Features {
		row[fi] = int32(iso.Count(f, g, nil, CountCap))
	}
	return row
}

// clone returns a shallow struct copy — the starting point of every
// copy-on-write constructor. Slices are shared until a constructor
// replaces the ones it touches.
func (ix *Index) clone() *Index {
	cp := *ix
	return &cp
}

// WithGraph returns a new Index extended by one graph's feature counts,
// leaving the receiver untouched — queries scanning the old Index
// concurrently see exactly the pre-insertion database. The counting
// feature set is not regrown; new label combinations absent from the
// original database simply contribute zero counts (the filter stays sound:
// a zero count can only make the graph look like a weaker container, never
// a stronger one — a zero count for a feature the query lacks changes
// nothing, and for a feature the query has it only adds misses for this
// graph, which is exact, since the count is exact).
//
// Sharing discipline: appends reuse the receiver's backing arrays when
// capacity allows, writing only beyond the receiver's length — invisible
// to it. That is safe because mutations form a linear chain (the writer
// lock in core serializes them and each starts from the newest Index), so
// a given backing slot is written at most once after becoming reachable.
func (ix *Index) WithGraph(g *graph.Graph) *Index {
	row := ix.countRow(g)
	n := ix.clone()
	n.counts = append(ix.counts, row...)
	n.dbc = append(ix.dbc, g)
	if ix.dead != nil {
		n.dead = append(ix.dead, false)
	}
	return n
}

// WithReplaced returns a new Index in which slot gi holds g's feature
// counts instead.
func (ix *Index) WithReplaced(gi int, g *graph.Graph) *Index {
	row := ix.countRow(g)
	n := ix.clone()
	n.counts = slices.Clone(ix.counts)
	copy(n.row(gi), row)
	n.dbc = slices.Clone(ix.dbc)
	n.dbc[gi] = g
	return n
}

// Select returns a new Index holding the given slots' count rows, in the
// given order and renumbered 0..len(slots)-1, all live — compaction and
// range partitioning are this one projection. Rows are copied, not
// re-counted.
func (ix *Index) Select(slots []int) *Index {
	n := &Index{Features: ix.Features}
	for _, gi := range slots {
		n.counts = append(n.counts, ix.row(gi)...)
		n.dbc = append(n.dbc, ix.dbc[gi])
	}
	return n
}

// WithTombstones returns a new Index with every listed slot marked dead.
// The count matrix keeps their rows — only candidate emission filters
// them — so the operation is O(slots) regardless of graph size; each
// slot's graph is released (it points at graph.Empty from here on).
func (ix *Index) WithTombstones(ids ...int) *Index {
	if len(ids) == 0 {
		return ix
	}
	n := ix.clone()
	n.dead = make([]bool, len(ix.dbc))
	copy(n.dead, ix.dead)
	n.dbc = slices.Clone(ix.dbc)
	for _, gi := range ids {
		if !n.dead[gi] {
			n.dead[gi] = true
			n.tombs++
			n.dbc[gi] = graph.Empty
		}
	}
	return n
}

// Tombstones returns the number of dead slots.
func (ix *Index) Tombstones() int { return ix.tombs }

// Live reports whether slot gi holds a live (non-tombstoned) graph.
func (ix *Index) Live(gi int) bool { return ix.dead == nil || !ix.dead[gi] }

// need is one term of the query side of the filter inequality: feature f
// embeds c = c_q(f) > 0 times (capped) in q.
type need struct{ f, c int32 }

// queryProfile computes the query side of the filter inequality: one need
// per feature q embeds, ascending by feature, and the budget T(δ) — the sum
// of the δ largest per-edge destruction weights w(e). A graph passes iff
// Σ_f max(0, c_q(f) − c_g(f)) ≤ budget; equality is a pass (deleting the δ
// heaviest edges may destroy exactly T(δ) feature embeddings). Features
// with zero embeddings in q contribute nothing on either side and get no
// need, so the scan never reads their column.
func (ix *Index) queryProfile(q *graph.Graph, delta int) (needs []need, budget int) {
	// Per-edge destruction weights w(e).
	w := make([]int, q.NumEdges())
	for fi, f := range ix.Features {
		n := 0
		iso.ForEach(f, q, nil, func(em *iso.Embedding) bool {
			n++
			for _, e := range em.Edges.Slice() {
				w[e]++
			}
			return n < CountCap
		})
		if n > 0 {
			needs = append(needs, need{int32(fi), int32(n)})
		}
	}
	// Budget T(δ): the δ largest w(e).
	sort.Sort(sort.Reverse(sort.IntSlice(w)))
	for i := 0; i < delta && i < len(w); i++ {
		budget += w[i]
	}
	return needs, budget
}

// scanRows returns the live graphs whose count row misses at most budget
// of the needed feature occurrences, ascending. A query that embeds no
// feature has no needs and a budget covering every need admits any row, so
// both keep every live graph without a case of their own. The result slice
// is the only allocation.
//
//pgvet:noalloc
func (ix *Index) scanRows(needs []need, budget int) []int {
	var out []int
	for gi := range ix.dbc {
		if !ix.Live(gi) {
			continue
		}
		row := ix.row(gi)
		misses := 0
		for _, n := range needs {
			if d := int(n.c - row[n.f]); d > 0 {
				misses += d
			}
		}
		if misses <= budget {
			out = append(out, gi)
		}
	}
	return out
}

// CandidatesCtx returns the indices of graphs passing the feature-miss
// filter for query q at distance threshold delta, ascending. The scan is
// serial — microseconds per thousand graphs — so workers is unused (the
// parameter stays until bench/ stops passing it) and ctx is checked once,
// before it: a cancelled call returns (nil, ctx.Err()).
func (ix *Index) CandidatesCtx(ctx context.Context, q *graph.Graph, delta, workers int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ix.scanRows(ix.queryProfile(q, delta)), nil
}

// Confirm verifies q ⊆sim gc exactly (subgraph distance ≤ delta).
func (ix *Index) Confirm(q *graph.Graph, gi, delta int) bool {
	return iso.ExistsWithin(q, ix.dbc[gi], nil, delta)
}

// SCq runs filter + exact confirmation: the paper's structural candidate
// set {g : q ⊆sim gc}. It also reports the filter's candidate count (the
// "Structure" bar of Figures 10–12). The exact confirmations run on a pool
// of `workers` goroutines (0/1 serial, negative GOMAXPROCS); results are
// identical at every worker count.
func (ix *Index) SCq(q *graph.Graph, delta, workers int) (confirmed []int, filterCandidates int) {
	confirmed, filterCandidates, _ = ix.SCqCtx(context.Background(), q, delta, workers)
	return confirmed, filterCandidates
}

// SCqCtx is SCq with cooperative cancellation: ctx is checked before the
// count scan and between exact confirmations (candidate granularity).
// A cancelled call returns (nil, 0, ctx.Err()) — never a partial candidate
// set; an uncancelled call returns exactly SCq's answer and a nil error.
func (ix *Index) SCqCtx(ctx context.Context, q *graph.Graph, delta, workers int) (confirmed []int, filterCandidates int, err error) {
	cand, err := ix.CandidatesCtx(ctx, q, delta, workers)
	if err != nil {
		return nil, 0, err
	}
	ok := make([]bool, len(cand))
	sp := obs.SpanFrom(ctx).Child("confirm")
	err = pool.ForEachIndexCtx(ctx, len(cand), pool.Normalize(workers, len(cand)), func(i int) error {
		ok[i] = ix.Confirm(q, cand[i], delta)
		return nil
	})
	sp.EndCount(int64(len(cand)))
	if err != nil {
		return nil, 0, err
	}
	for i, gi := range cand {
		if ok[i] {
			confirmed = append(confirmed, gi)
		}
	}
	return confirmed, len(cand), nil
}
