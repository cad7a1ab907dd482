package core

import (
	"sync"

	"probgraph/internal/graph"
	"probgraph/internal/iso"
)

// Salts separating the independent per-candidate random streams derived
// from one QueryOptions.Seed.
const (
	pruneSalt  = 0x5bf03635
	verifySalt = 0x27d4eb2f
)

// candSeed derives the RNG seed for candidate graph gi from the query
// seed with a SplitMix64-style mix. Every randomized per-candidate step
// (SSPBound pair choice, QP rounding, SMP sampling) seeds from this and
// nothing else, so a candidate's draws are a pure function of (Seed, gi) —
// independent of scheduling order and of which other candidates exist.
// That is what makes serial and concurrent runs bitwise-identical.
func candSeed(seed int64, gi int) int64 {
	z := uint64(seed) + (uint64(gi)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// BatchSeed is the per-query seed QueryBatchCtx derives from its base seed:
// query i of a batch runs exactly as QueryCtx would with this seed, which
// lets callers reproduce any batch member individually.
func BatchSeed(seed int64, i int) int64 {
	return seed + int64(i)*1000003
}

// relEntry records which PMI features relate to one relaxed query by
// subgraph isomorphism, in each direction.
type relEntry struct {
	sup []int // features f with f ⊆iso rq (upper-bound direction)
	sub []int // features f with rq ⊆iso f (lower-bound direction)
}

// relCache memoizes feature relations keyed by the relaxed query's
// canonical code. QueryBatchCtx shares one cache across its queries: relaxed
// query sets of similar queries overlap heavily, so the subgraph
// isomorphism tests against the feature vocabulary — the dominant cost of
// pruner construction — are paid once per distinct relaxed query instead
// of once per (query, relaxed query) pair.
type relCache struct {
	mu sync.Mutex
	m  map[string]relEntry
}

func newRelCache() *relCache { return &relCache{m: make(map[string]relEntry)} }

// featureRelations computes (or recalls from cache) the feature sets
// related to one relaxed query. Safe for concurrent use.
func (v *View) featureRelations(rq *graph.Graph, cache *relCache) relEntry {
	var key string
	if cache != nil {
		key = graph.CanonicalCode(rq)
		cache.mu.Lock()
		e, ok := cache.m[key]
		cache.mu.Unlock()
		if ok {
			return e
		}
	}
	var e relEntry
	for j := 0; j < v.PMI.NumFeatures(); j++ {
		f := v.PMI.Features[j]
		if iso.Exists(f, rq, nil) {
			e.sup = append(e.sup, j)
		}
		if iso.Exists(rq, f, nil) {
			e.sub = append(e.sub, j)
		}
	}
	if cache != nil {
		cache.mu.Lock()
		cache.m[key] = e
		cache.mu.Unlock()
	}
	return e
}
