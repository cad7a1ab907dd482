package core

// Salts separating the independent per-candidate random streams derived
// from one QueryOptions.Seed.
const (
	pruneSalt  = 0x5bf03635
	verifySalt = 0x27d4eb2f
)

// candSeed derives the RNG seed for candidate graph gi from the query
// seed with a SplitMix64-style mix. Every randomized per-candidate step
// (plain SSPBound's pair choice, SMP sampling) seeds from this and
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
