package core

import (
	"math/rand"
	"sync"

	"probgraph/internal/cover"
	"probgraph/internal/pmi"
)

// scratch is the pooled per-candidate working state of the pruning hot
// path. An evaluating goroutine takes one from the pool for the candidate's
// candSeed, computes the bounds, and puts it back. In steady state a
// candidate decided by the bounds allocates nothing: every buffer sticks at
// its high-water capacity inside the pool. The generator is seeded on the
// candidate's first draw, which only the plain SSPBound baseline makes —
// OPT-SSPBound draws nothing, so it never pays the 607-word reseed — and
// Seed on a rand.NewSource-backed Rand restores exactly the stream a fresh
// rand.New(rand.NewSource(seed)) would produce: pooling never changes a
// drawn value, so the determinism contract is untouched.
type scratch struct {
	rng    *rand.Rand
	seed   int64 // the candidate's candSeed
	seeded bool  // rng has been reseeded from seed

	entries  []pmi.Entry // LookupInto buffer (one PMI row)
	choicesF []float64   // plain upper bound: per-rq qualifying uppers
	choicesI []int       // plain lower bound: per-rq qualifying features
	sets     [][]int     // OPT upper bound: Instance.Sets backing
	wu       []float64   // OPT upper bound: Instance.Weights backing
	covered  []bool      // OPT upper bound: rq coverage flags
	singles  []int       // OPT upper bound: singleton-set backing [0,1,...]
	cov      cover.Scratch
}

var scratchPool = sync.Pool{
	New: func() any { return &scratch{rng: rand.New(rand.NewSource(0))} },
}

// getScratch takes a pooled scratch whose draws will come from seed.
func getScratch(seed int64) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.seed, sc.seeded = seed, false
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// intn is the candidate's next draw from [0, n).
func (sc *scratch) intn(n int) int {
	if !sc.seeded {
		sc.rng.Seed(sc.seed)
		sc.seeded = true
	}
	return sc.rng.Intn(n)
}

// clearedBools resizes *buf to n all-false entries, reusing capacity.
func clearedBools(buf *[]bool, n int) []bool {
	b := *buf
	if cap(b) < n {
		b = make([]bool, n)
	} else {
		b = b[:n]
		for i := range b {
			b[i] = false
		}
	}
	*buf = b
	return b
}
