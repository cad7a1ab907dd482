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
// The count filter is evaluated over a sharded inverted index — per-feature
// level postings scanned in parallel, touching only the features q embeds —
// rather than the dense |D|×|F| matrix scan; see postings.go. The dense
// matrix is retained for incremental updates and as the test oracle
// (CandidatesDense); snapshots carry both (snap.go).
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

// Index holds per-graph feature occurrence counts, both as the dense
// matrix (snapshot format, test oracle) and as the sharded inverted
// postings the query path scans (see postings.go).
//
// An Index is immutable once published: mutation goes through the
// copy-on-write constructors WithGraph, WithTombstone, WithReplaced, and
// Compacted, each returning a new Index that shares every untouched slice
// with its predecessor. Queries running against an older Index therefore
// never observe a mutation — the generation-view machinery in
// internal/core relies on exactly that.
//
// Removal is tombstone-based: WithTombstone marks the slot dead and lets
// its graph go, the postings keep the graph's entries, and every scan path
// (postings, dense oracle, the all-pass shortcut) filters dead slots at
// emission.
// Compacted drops the tombstones and renumbers the survivors.
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
	// Dead slots keep their counts row and posting entries but are
	// filtered out of every candidate list.
	dead  []bool
	tombs int

	shardSize   int
	shards      []*shard
	postEntries int
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

// BuildIndex counts feature embeddings in every certain graph and builds
// the sharded inverted postings over the counts.
func BuildIndex(dbc []*graph.Graph, features []*graph.Graph) *Index {
	return BuildIndexSharded(dbc, features, DefaultShardSize)
}

// BuildIndexSharded is BuildIndex with an explicit postings shard width
// (<= 0 selects DefaultShardSize). The shard width trades scan parallelism
// against per-shard overhead; it never affects results.
func BuildIndexSharded(dbc []*graph.Graph, features []*graph.Graph, shardSize int) *Index {
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	ix := &Index{Features: features, dbc: dbc, counts: make([]int32, 0, len(dbc)*len(features)), shardSize: shardSize}
	for _, g := range dbc {
		ix.counts = append(ix.counts, ix.countRow(g)...)
	}
	ix.rebuildPostings()
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
	gi := len(ix.dbc)
	n.counts = append(ix.counts, row...)
	n.dbc = append(ix.dbc, g)
	if ix.dead != nil {
		n.dead = append(ix.dead, false)
	}
	// The flat shard layout cannot be patched in place, so the shard
	// gaining the graph is rebuilt from its count rows — O(shard entries),
	// bounded by the shard width; every other shard is shared.
	n.shards = slices.Clone(ix.shards)
	last := len(n.shards) - 1
	if last < 0 || n.shards[last].n >= n.shardSize {
		s, entries := rebuildShard(gi, 1, n.counts, len(n.Features))
		n.postEntries += entries
		n.shards = append(n.shards, s)
	} else {
		old := n.shards[last]
		s, entries := rebuildShard(old.lo, old.n+1, n.counts, len(n.Features))
		n.postEntries += entries - len(old.slab)
		n.shards[last] = s
	}
	return n
}

// WithTombstone returns a new Index with slot gi marked dead. The postings
// and count matrix keep the graph's entries — only candidate emission
// filters it — so the operation is O(slots) regardless of graph size; the
// slot's graph is released (it points at graph.Empty from here on).
func (ix *Index) WithTombstone(gi int) *Index {
	return ix.WithTombstones([]int{gi})
}

// WithReplaced returns a new Index in which slot gi holds g's feature
// counts instead. Only the postings shard owning gi is rebuilt (from the
// count rows of its range); every other shard is shared.
func (ix *Index) WithReplaced(gi int, g *graph.Graph) *Index {
	row := ix.countRow(g)
	n := ix.clone()
	n.counts = slices.Clone(ix.counts)
	copy(n.row(gi), row)
	n.dbc = slices.Clone(ix.dbc)
	n.dbc[gi] = g
	n.shards = slices.Clone(ix.shards)
	for si, s := range n.shards {
		if gi >= s.lo && gi < s.lo+s.n {
			fresh, added := rebuildShard(s.lo, s.n, n.counts, len(n.Features))
			n.postEntries += added - len(s.slab)
			n.shards[si] = fresh
			break
		}
	}
	return n
}

// Compacted returns a new Index without the tombstoned slots: survivors
// keep their relative order and are renumbered contiguously, and the
// postings are rebuilt from the surviving count rows (no re-counting).
func (ix *Index) Compacted() *Index {
	n := &Index{Features: ix.Features, shardSize: ix.shardSize}
	for gi := range ix.dbc {
		if ix.dead != nil && ix.dead[gi] {
			continue
		}
		n.counts = append(n.counts, ix.row(gi)...)
		n.dbc = append(n.dbc, ix.dbc[gi])
	}
	n.rebuildPostings()
	return n
}

// WithTombstones returns a new Index with every listed slot marked dead —
// the snapshot loader's bulk form of WithTombstone.
func (ix *Index) WithTombstones(ids []int) *Index {
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

// queryProfile computes the query side of the filter inequality, shared by
// the postings scan and the dense oracle so the two paths cannot diverge on
// boundary semantics: cq[f] is the (capped) embedding count of feature f in
// q, budget is T(δ) — the sum of the δ largest per-edge destruction weights
// w(e). A graph passes iff Σ_f max(0, cq[f] − c_g(f)) ≤ budget; equality is
// a pass (deleting the δ heaviest edges may destroy exactly T(δ) feature
// embeddings). Features with zero embeddings in q contribute nothing on
// either side and are skipped entirely by the postings scan.
func (ix *Index) queryProfile(q *graph.Graph, delta int) (cq []int, budget int) {
	cq = make([]int, len(ix.Features))
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
		cq[fi] = n
	}
	// Budget T(δ): the δ largest w(e).
	sorted := append([]int(nil), w...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for i := 0; i < delta && i < len(sorted); i++ {
		budget += sorted[i]
	}
	return cq, budget
}

// CandidatesDense is the original dense scan over the full count matrix,
// kept as the reference oracle the postings-based Candidates is tested
// against. Both paths share queryProfile, so they answer identically by
// construction of the hits/misses identity — the property tests assert it
// anyway.
func (ix *Index) CandidatesDense(q *graph.Graph, delta int) []int {
	cq, budget := ix.queryProfile(q, delta)
	var out []int
	for gi := range ix.dbc {
		if !ix.Live(gi) {
			continue
		}
		misses := 0
		row := ix.row(gi)
		for fi := range ix.Features {
			if d := cq[fi] - int(row[fi]); d > 0 {
				misses += d
			}
		}
		if misses <= budget {
			out = append(out, gi)
		}
	}
	return out
}

// Confirm verifies q ⊆sim gc exactly (subgraph distance ≤ delta).
func (ix *Index) Confirm(q *graph.Graph, gi, delta int) bool {
	return iso.ExistsWithin(q, ix.dbc[gi], nil, delta)
}

// SCq runs filter + exact confirmation: the paper's structural candidate
// set {g : q ⊆sim gc}. It also reports the filter's candidate count (the
// "Structure" bar of Figures 10–12). Both the postings scan and the exact
// confirmations run on a pool of `workers` goroutines (0/1 serial,
// negative GOMAXPROCS); results are identical at every worker count.
func (ix *Index) SCq(q *graph.Graph, delta, workers int) (confirmed []int, filterCandidates int) {
	confirmed, filterCandidates, _ = ix.SCqCtx(context.Background(), q, delta, workers)
	return confirmed, filterCandidates
}

// SCqCtx is SCq with cooperative cancellation: the postings scan cancels
// at shard granularity, the exact confirmations at candidate granularity.
// A cancelled call returns (nil, 0, ctx.Err()) — never a partial candidate
// set; an uncancelled call returns exactly SCq's answer and a nil error.
func (ix *Index) SCqCtx(ctx context.Context, q *graph.Graph, delta, workers int) (confirmed []int, filterCandidates int, err error) {
	cand, err := ix.CandidatesCtx(ctx, q, delta, workers)
	if err != nil {
		return nil, 0, err
	}
	ok := make([]bool, len(cand))
	sp := obs.SpanFrom(ctx).Child("confirm")
	err = pool.ForEachIndexCtx(ctx, len(cand), pool.Normalize(workers, len(cand)), func(i int) {
		ok[i] = ix.Confirm(q, cand[i], delta)
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
