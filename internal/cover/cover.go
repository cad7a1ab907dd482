// Package cover implements the weighted set cover approximation used to
// compute the tightest SSP upper bound Usim(q) (paper Definition 10 and
// Algorithm 1): elements are the relaxed queries rq1..rqa, sets are the
// indexed features' supersets with weight UpperB(f), and the greedy
// ln|U|-approximate cover minimizes the summed upper bounds.
package cover

import "math"

// Instance is a weighted set cover problem over elements 0..NumElements-1.
type Instance struct {
	NumElements int
	Sets        [][]int   // Sets[j] lists the elements covered by set j
	Weights     []float64 // Weights[j] >= 0
}

// Scratch holds Greedy's working buffers so hot callers can reuse them
// across calls and run allocation-free. The zero value is ready to use.
type Scratch struct {
	covered []bool
	used    []bool
}

// Greedy runs the classic weighted greedy: repeatedly pick the set
// minimizing weight / newly-covered-count (paper Algorithm 1's γ(s)), ties
// to the larger gain, then to the earlier set. It stops once no set covers
// anything new and returns the summed weight of the sets it picked, in set
// order, and how many elements they cover — fewer than NumElements when the
// sets do not cover U. It allocates nothing once sc has grown to the
// instance size.
func Greedy(in Instance, sc *Scratch) (weight float64, covered int) {
	isCovered := clearedBools(&sc.covered, in.NumElements)
	used := clearedBools(&sc.used, len(in.Sets))
	for covered < in.NumElements {
		best, bestGamma, bestGain := -1, math.Inf(1), 0
		for j, s := range in.Sets {
			if used[j] {
				continue
			}
			gain := 0
			for _, e := range s {
				if !isCovered[e] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			gamma := in.Weights[j] / float64(gain)
			if gamma < bestGamma || (gamma == bestGamma && gain > bestGain) {
				best, bestGamma, bestGain = j, gamma, gain
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		for _, e := range in.Sets[best] {
			if !isCovered[e] {
				isCovered[e] = true
				covered++
			}
		}
	}
	for j, u := range used {
		if u {
			weight += in.Weights[j]
		}
	}
	return weight, covered
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
