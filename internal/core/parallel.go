package core

import "probgraph/internal/graph"

// Salts separating the independent per-candidate random streams derived
// from one QueryOptions.Seed.
const (
	pruneSalt  = 0x5bf03635
	verifySalt = 0x27d4eb2f
)

// candSeed derives the RNG seed for candidate graph gi from the query
// seed: output gi, counting from 0, of the SplitMix64 stream seeded with
// it, i.e. graph.Mix(seed + gi·γ). Every randomized per-candidate step
// (plain SSPBound's pair choice, SMP sampling) seeds from this and nothing
// else, so a candidate's draws are a pure function of (Seed, gi) —
// independent of scheduling order and of which other candidates exist.
// That is what makes serial and concurrent runs bitwise-identical.
func candSeed(seed int64, gi int) int64 {
	return int64(graph.Mix(uint64(seed) + uint64(gi)*0x9e3779b97f4a7c15))
}

// BatchSeed is the per-query seed QueryBatchCtx derives from its base seed:
// query i of a batch runs exactly as QueryCtx would with this seed, which
// lets callers reproduce any batch member individually.
func BatchSeed(seed int64, i int) int64 {
	return seed + int64(i)*1000003
}
