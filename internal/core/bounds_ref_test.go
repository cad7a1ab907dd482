package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"probgraph/internal/pmi"
)

// refGreedyWeight is the greedy cover the bounds ran before the relation
// list, kept as their reference: pick the set of least weight per newly
// covered element (ties to the larger gain, then the earlier set) until
// every element is covered or no set covers a new one, then sum the
// chosen sets' weights in set order.
func refGreedyWeight(nElems int, sets [][]int, weights []float64) float64 {
	covered, used := make([]bool, nElems), make([]bool, len(sets))
	for remaining := nElems; remaining > 0; {
		best, bestGamma, bestGain := -1, math.Inf(1), 0
		for j, s := range sets {
			if used[j] {
				continue
			}
			gain := 0
			for _, e := range s {
				if !covered[e] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			gamma := weights[j] / float64(gain)
			if gamma < bestGamma || (gamma == bestGamma && gain > bestGain) {
				best, bestGamma, bestGain = j, gamma, gain
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		for _, e := range sets[best] {
			if !covered[e] {
				covered[e] = true
				remaining--
			}
		}
	}
	w := 0.0
	for j, u := range used {
		if u {
			w += weights[j]
		}
	}
	return w
}

// refBounds are the bounds over dense per-feature tables and a copied row,
// as they were computed before the relation list: OPT Usim is the paper's
// instance — every contained feature's members, then one weight-1
// singleton per member no such feature covers — and the plain bounds draw
// from rng in feature order per member, upper bound first.
func refBounds(row []pmi.Entry, supOf, subOf [][]int, nu int, optBounds bool, rng *rand.Rand) (upper, lower float64) {
	if optBounds {
		var sets [][]int
		var weights []float64
		covered := make([]bool, nu)
		for j, e := range row {
			if !e.Contained || len(supOf[j]) == 0 {
				continue
			}
			sets, weights = append(sets, supOf[j]), append(weights, e.Upper)
			for _, i := range supOf[j] {
				covered[i] = true
			}
		}
		for i, c := range covered {
			if !c {
				sets, weights = append(sets, []int{i}), append(weights, 1)
			}
		}
		upper = refGreedyWeight(nu, sets, weights)
		for j, e := range row {
			if e.Contained && len(subOf[j]) > 0 {
				lower = max(lower, e.Lower)
			}
		}
		return upper, lower
	}
	for i := range nu {
		var choices []float64
		for j, e := range row {
			if e.Contained && slices.Contains(supOf[j], i) {
				choices = append(choices, e.Upper)
			}
		}
		if len(choices) == 0 {
			upper += 1
			continue
		}
		upper += choices[rng.Intn(len(choices))]
	}
	for i := range nu {
		var choices []int
		for j, e := range row {
			if e.Contained && slices.Contains(subOf[j], i) {
				choices = append(choices, j)
			}
		}
		if len(choices) > 0 {
			lower = max(lower, row[choices[rng.Intn(len(choices))]].Lower)
		}
	}
	return upper, lower
}

// TestBoundsMatchDenseReference holds the bounds over the relation list to
// refBounds bitwise, on random instances built to hit the cover's corner
// cases: weights on a grid of quarters (0 and 1 included) over sets of 1,
// 2 and 4 members, so ratios tie; features contained in the candidate
// whose sup is empty (they may hold a member through sub) and features
// not contained; members no feature covers. The plain bounds draw from a
// scratch seeded as refBounds' generator, so both make the same draws.
func TestBoundsMatchDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	// subset draws 0, 1, 2 or 4 of the nu members, ascending.
	subset := func(nu int) []int {
		s := rng.Perm(nu)[:min([]int{0, 1, 2, 4}[rng.Intn(4)], nu)]
		slices.Sort(s)
		return s
	}
	var ties, uncovered, emptySup int
	for trial := range 4000 {
		nu, nf := 1+rng.Intn(6), 1+rng.Intn(10)
		row := make([]pmi.Entry, nf)
		supOf, subOf := make([][]int, nf), make([][]int, nf)
		var rels []relation
		for j := range nf {
			if rng.Intn(5) > 0 {
				up := float64(rng.Intn(5)) / 4
				if rng.Intn(4) == 0 {
					up = rng.Float64()
				}
				row[j] = pmi.Entry{Contained: true, Lower: up * float64(rng.Intn(3)) / 2, Upper: up}
			}
			supOf[j] = subset(nu)
			switch rng.Intn(3) {
			case 0:
				subOf[j] = supOf[j]
			case 1:
				subOf[j] = subset(nu)
			}
			if len(supOf[j]) == 0 {
				supOf[j] = nil
			}
			if len(subOf[j]) == 0 {
				subOf[j] = nil
			}
			if supOf[j] != nil || subOf[j] != nil {
				rels = append(rels, relation{f: j, sup: supOf[j], sub: subOf[j]})
			}
			if row[j].Contained && supOf[j] == nil && subOf[j] != nil {
				emptySup++
			}
		}
		covered := make([]bool, nu)
		gammas := map[float64]int{}
		for j, e := range row {
			if e.Contained && len(supOf[j]) > 0 {
				gammas[e.Upper/float64(len(supOf[j]))]++
				for _, i := range supOf[j] {
					covered[i] = true
				}
			}
		}
		if slices.Contains(covered, false) {
			uncovered++
		}
		for _, n := range gammas {
			if n > 1 {
				ties++
				break
			}
		}
		for _, optBounds := range []bool{false, true} {
			seed := int64(trial)
			p := &pruner{nu: nu, opt: QueryOptions{OptBounds: optBounds}, rels: rels}
			sc := getScratch(seed)
			sc.row = row
			upper := p.upperBound(sc)
			lower := p.lowerBound(sc)
			putScratch(sc)
			wantUpper, wantLower := refBounds(row, supOf, subOf, nu, optBounds, rand.New(rand.NewSource(seed)))
			if math.Float64bits(upper) != math.Float64bits(wantUpper) || math.Float64bits(lower) != math.Float64bits(wantLower) {
				t.Fatalf("trial %d opt=%v: Usim %v Lsim %v, reference %v and %v\n row %v\n supOf %v\n subOf %v",
					trial, optBounds, upper, lower, wantUpper, wantLower, row, supOf, subOf)
			}
		}
	}
	if ties == 0 || uncovered == 0 || emptySup == 0 {
		t.Fatalf("instances with tied ratios %d, with an uncovered member %d, contained features with empty sup %d: a corner went untested", ties, uncovered, emptySup)
	}
}
