package simsearch

import (
	"context"
	"slices"
	"sync"

	"probgraph/internal/graph"
	"probgraph/internal/obs"
	"probgraph/internal/pool"
)

// The inverted structural index replaces the dense |D|×|F| count-matrix
// scan with per-feature level postings: for feature f and level k,
// level k of f lists (ascending) the graphs containing f at least k+1
// times. A query then touches only the postings of features it actually
// embeds — for each such feature f with query count c_q(f), levels
// 0..c_q(f)-1 — and accumulates per-graph hits. Since
//
//	hits(g) = Σ_f min(c_q(f), c_g(f))
//	misses(g) = Σ_f max(0, c_q(f) − c_g(f)) = Σ_f c_q(f) − hits(g),
//
// the Grafil condition misses(g) ≤ T(δ) becomes hits(g) ≥ Σ_f c_q(f) − T(δ):
// one threshold test per graph, with graphs containing none of the query's
// features never touched at all (they pass only when the budget already
// covers every query feature occurrence, which is tested once, not per
// graph).
//
// Postings are split into shards owning contiguous graph-id ranges of
// shardSize graphs each. Shards scan independently — disjoint hit
// accumulators, candidates emitted in ascending id order per shard, shard
// outputs concatenated in range order — so the scan fans out over the
// deterministic worker pool and returns the identical candidate list at
// every worker count.
//
// Within a shard the postings are three flat int32 slabs rather than a
// [][][]int32 tree: lvlOff[f] .. lvlOff[f+1] indexes feature f's levels in
// entOff, and entOff[L] .. entOff[L+1] brackets level L's graph ids in
// slab. The flat layout is what lets pgsnap v4 mmap a shard straight off
// disk (three contiguous slices, no pointer fix-up) and keeps the scan's
// inner loop on one cache-friendly array. The price is that appending a
// graph rebuilds the last shard's slabs from its count rows — O(shard
// entries), bounded by the shard width — instead of patching per-level
// lists; WithGraph pays it, queries never do. Tombstoned graphs keep
// their posting entries and are filtered at emission.

// DefaultShardSize is the postings shard width used by BuildIndex.
const DefaultShardSize = 256

// shard owns the postings of graphs [lo, lo+n) as flat slabs.
type shard struct {
	lo int // first graph id owned
	n  int // graphs currently present
	// Levels of feature f are entOff indices lvlOff[f]..lvlOff[f+1]
	// (exclusive); level L's ids, ascending, are slab[entOff[L]:entOff[L+1]].
	// len(lvlOff) = nf+1, len(entOff) = lvlOff[nf]+1.
	lvlOff []int32
	entOff []int32
	slab   []int32
}

// rebuildShard builds a fresh shard over graphs [lo, lo+n) from their rows
// in the flat count slab, returning it and its posting-entry count
// (len(slab)). Level lists come out ascending because graphs are visited
// in id order.
func rebuildShard(lo, n int, counts []int32, nf int) (*shard, int) {
	s := &shard{lo: lo, n: n, lvlOff: make([]int32, nf+1)}
	// Pass 1: levels per feature = the max count in the shard.
	for gi := lo; gi < lo+n; gi++ {
		row := counts[gi*nf : (gi+1)*nf]
		for fi, c := range row {
			if c > s.lvlOff[fi+1] {
				s.lvlOff[fi+1] = c
			}
		}
	}
	for fi := 0; fi < nf; fi++ {
		s.lvlOff[fi+1] += s.lvlOff[fi]
	}
	// Pass 2: level sizes, then prefix-sum into entOff.
	nlv := int(s.lvlOff[nf])
	s.entOff = make([]int32, nlv+1)
	for gi := lo; gi < lo+n; gi++ {
		row := counts[gi*nf : (gi+1)*nf]
		for fi, c := range row {
			base := s.lvlOff[fi]
			for k := int32(0); k < c; k++ {
				s.entOff[base+k+1]++
			}
		}
	}
	for l := 0; l < nlv; l++ {
		s.entOff[l+1] += s.entOff[l]
	}
	// Pass 3: fill, advancing a per-level cursor.
	s.slab = make([]int32, s.entOff[nlv])
	cur := slices.Clone(s.entOff[:nlv])
	for gi := lo; gi < lo+n; gi++ {
		row := counts[gi*nf : (gi+1)*nf]
		for fi, c := range row {
			base := s.lvlOff[fi]
			for k := int32(0); k < c; k++ {
				s.slab[cur[base+k]] = int32(gi)
				cur[base+k]++
			}
		}
	}
	return s, len(s.slab)
}

// hitsPool recycles the per-scan hit accumulators so a steady stream of
// queries allocates nothing for them.
var hitsPool = sync.Pool{New: func() any { return new([]int32) }}

// scan accumulates per-graph hits over the query profile cq and returns
// the owned graphs with hits >= need and no tombstone, ascending. need
// must be >= 1; dead may be nil (no tombstones).
//
//pgvet:noalloc
func (s *shard) scan(cq []int, need int, dead []bool) []int {
	hp := hitsPool.Get().(*[]int32)
	hits := *hp
	if cap(hits) < s.n {
		hits = make([]int32, s.n)
	} else {
		hits = hits[:s.n]
		clear(hits)
	}
	for fi, c := range cq {
		if c == 0 {
			continue
		}
		base := int(s.lvlOff[fi])
		if nlv := int(s.lvlOff[fi+1]) - base; c > nlv {
			c = nlv
		}
		for k := 0; k < c; k++ {
			for _, gid := range s.slab[s.entOff[base+k]:s.entOff[base+k+1]] {
				hits[int(gid)-s.lo]++
			}
		}
	}
	var out []int
	for off, h := range hits {
		if int(h) >= need && (dead == nil || !dead[s.lo+off]) {
			out = append(out, s.lo+off)
		}
	}
	*hp = hits
	hitsPool.Put(hp)
	return out
}

// validate checks a shard decoded from untrusted bytes: offsets monotone
// and mutually consistent, every slab entry inside [lo, lo+n). A shard
// passing validate can be scanned with any query profile without
// out-of-range indexing.
func (s *shard) validate(nf int) bool {
	if s.n < 0 || s.lo < 0 || len(s.lvlOff) != nf+1 || s.lvlOff[0] != 0 {
		return false
	}
	for fi := 0; fi < nf; fi++ {
		if s.lvlOff[fi+1] < s.lvlOff[fi] {
			return false
		}
	}
	nlv := int(s.lvlOff[nf])
	if len(s.entOff) != nlv+1 || (nlv > 0 && s.entOff[0] != 0) || (nlv == 0 && len(s.slab) != 0) {
		return false
	}
	for l := 0; l < nlv; l++ {
		if s.entOff[l+1] < s.entOff[l] {
			return false
		}
	}
	if nlv > 0 && int(s.entOff[nlv]) != len(s.slab) {
		return false
	}
	for _, gid := range s.slab {
		if int(gid) < s.lo || int(gid) >= s.lo+s.n {
			return false
		}
	}
	return true
}

// rebuildPostings derives the sharded inverted index from the flat count
// slab (deterministic: same counts and shard size ⇒ same postings).
func (ix *Index) rebuildPostings() {
	ix.shards, ix.postEntries = nil, 0
	nf := len(ix.Features)
	for lo := 0; lo < len(ix.dbc); lo += ix.shardSize {
		n := min(ix.shardSize, len(ix.dbc)-lo)
		s, entries := rebuildShard(lo, n, ix.counts, nf)
		ix.shards = append(ix.shards, s)
		ix.postEntries += entries
	}
}

// Candidates returns the indices of graphs passing the feature-miss filter
// for query q at distance threshold delta, ascending. The postings shards
// are scanned on a pool of `workers` goroutines (0/1 serial, negative
// GOMAXPROCS); the result is identical at every worker count and equal to
// CandidatesDense.
func (ix *Index) Candidates(q *graph.Graph, delta, workers int) []int {
	out, _ := ix.CandidatesCtx(context.Background(), q, delta, workers)
	return out
}

// CandidatesCtx is Candidates with cooperative cancellation at shard
// granularity: ctx is checked before each postings shard is scanned, and a
// cancelled scan returns (nil, ctx.Err()) — never a partial candidate
// list. An uncancelled run returns exactly Candidates' answer.
func (ix *Index) CandidatesCtx(ctx context.Context, q *graph.Graph, delta, workers int) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cq, budget := ix.queryProfile(q, delta)
	total := 0
	for _, c := range cq {
		total += c
	}
	need := total - budget
	if need <= 0 {
		// The budget covers every query feature occurrence, so even a graph
		// containing none of them passes — all live graphs are candidates
		// (this includes queries embedding no feature at all: total = 0).
		out := make([]int, 0, len(ix.dbc)-ix.tombs)
		for gi := range ix.dbc {
			if ix.Live(gi) {
				out = append(out, gi)
			}
		}
		return out, nil
	}
	outs := make([][]int, len(ix.shards))
	parent := obs.SpanFrom(ctx)
	err := pool.ForEachIndexCtx(ctx, len(ix.shards), pool.Normalize(workers, len(ix.shards)), func(si int) {
		sp := parent.Child("postings_shard")
		outs[si] = ix.shards[si].scan(cq, need, ix.dead)
		sp.EndCount(int64(len(outs[si])))
	})
	if err != nil {
		return nil, err
	}
	var out []int
	for _, part := range outs {
		out = append(out, part...)
	}
	return out, nil
}

// PostingsStats reports the inverted index shape: the number of shards and
// the total posting entries (Σ_g Σ_f c_g(f)) across all levels.
func (ix *Index) PostingsStats() (shards, entries int) {
	return len(ix.shards), ix.postEntries
}

// ShardSize returns the configured shard width.
func (ix *Index) ShardSize() int { return ix.shardSize }
