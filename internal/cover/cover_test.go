package cover

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyPaperExample3(t *testing.T) {
	// Paper Example 3: U = {rq1,rq2,rq3}; s1={rq1,rq2} w=0.4,
	// s2={rq2,rq3} w=0.1, s3={rq1,rq3} w=0.5. Candidate covers are
	// {s1,s2}=0.5, {s1,s3}=0.9, {s2,s3}=0.6; the tightest Usim is 0.5.
	in := Instance{
		NumElements: 3,
		Sets:        [][]int{{0, 1}, {1, 2}, {0, 2}},
		Weights:     []float64{0.4, 0.1, 0.5},
	}
	w, covered := Greedy(in, &Scratch{})
	if covered != 3 {
		t.Fatalf("covered %d of 3: instance is coverable", covered)
	}
	if math.Abs(w-0.5) > 1e-12 {
		t.Fatalf("Usim = %v, want 0.5", w)
	}
}

func TestGreedyIsValidCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		nSets := 1 + rng.Intn(8)
		in := Instance{NumElements: n}
		for j := 0; j < nSets; j++ {
			var s []int
			for e := 0; e < n; e++ {
				if rng.Intn(2) == 0 {
					s = append(s, e)
				}
			}
			in.Sets = append(in.Sets, s)
			in.Weights = append(in.Weights, rng.Float64())
		}
		w, covered := Greedy(in, &Scratch{})
		// The sets cover what their union covers, and the weight is that
		// of some subfamily: at most the sum of all of them.
		universe := make([]bool, n)
		coverable, total := 0, 0.0
		for j, s := range in.Sets {
			total += in.Weights[j]
			for _, e := range s {
				if !universe[e] {
					universe[e] = true
					coverable++
				}
			}
		}
		return covered == coverable && w >= 0 && w <= total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyApproximationBound(t *testing.T) {
	// Greedy weight ≤ OPT · H(|U|) ≤ OPT · (ln|U| + 1).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		nSets := 2 + rng.Intn(6)
		in := Instance{NumElements: n}
		for j := 0; j < nSets; j++ {
			var s []int
			for e := 0; e < n; e++ {
				if rng.Intn(2) == 0 {
					s = append(s, e)
				}
			}
			if len(s) == 0 {
				s = []int{rng.Intn(n)}
			}
			in.Sets = append(in.Sets, s)
			in.Weights = append(in.Weights, 0.05+rng.Float64())
		}
		opt, feasible := bruteForceOptimal(in)
		w, covered := Greedy(in, &Scratch{})
		if !feasible {
			return covered < n
		}
		if covered != n {
			return false
		}
		return w <= opt*(math.Log(float64(n))+1)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	if w, covered := Greedy(Instance{NumElements: 0}, &Scratch{}); w != 0 || covered != 0 {
		t.Fatalf("empty universe: weight %v, covered %d", w, covered)
	}
}

func TestGreedyInfeasible(t *testing.T) {
	in := Instance{NumElements: 2, Sets: [][]int{{0}}, Weights: []float64{1}}
	w, covered := Greedy(in, &Scratch{})
	if covered != 1 || w != 1 {
		t.Fatalf("should cover what it can, element 0 at weight 1: weight %v, covered %d", w, covered)
	}
}

func TestGreedyPrefersCheapPerElement(t *testing.T) {
	// One expensive set covering everything vs two cheap sets: greedy picks
	// by weight/gain ratio.
	in := Instance{
		NumElements: 2,
		Sets:        [][]int{{0, 1}, {0}, {1}},
		Weights:     []float64{1.0, 0.1, 0.1},
	}
	if w, _ := Greedy(in, &Scratch{}); math.Abs(w-0.2) > 1e-12 {
		t.Fatalf("weight = %v, want 0.2", w)
	}
}

// bruteForceOptimal exhaustively finds the minimum-weight full cover; it
// only admits small instances (≤ 20 sets).
func bruteForceOptimal(in Instance) (weight float64, ok bool) {
	n := len(in.Sets)
	if n > 20 {
		return 0, false
	}
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		covered := make([]bool, in.NumElements)
		cnt := 0
		w := 0.0
		for j := 0; j < n; j++ {
			if mask&(1<<j) == 0 {
				continue
			}
			w += in.Weights[j]
			for _, e := range in.Sets[j] {
				if !covered[e] {
					covered[e] = true
					cnt++
				}
			}
		}
		if cnt == in.NumElements && w < best {
			best = w
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}
