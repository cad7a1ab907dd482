package graph

import "math/bits"

// EdgeSet is a fixed-capacity bitset over EdgeIDs. It is the representation
// of possible worlds (which edges exist) and of embeddings (which edges a
// match uses) throughout the system.
type EdgeSet struct {
	words []uint64
	n     int
}

// NewEdgeSet returns an empty EdgeSet with capacity for edge IDs 0..n-1.
func NewEdgeSet(n int) EdgeSet {
	return EdgeSet{words: make([]uint64, (n+63)/64), n: n}
}

// FullEdgeSet returns an EdgeSet with all n bits set.
func FullEdgeSet(n int) EdgeSet {
	s := NewEdgeSet(n)
	for i := 0; i < n; i++ {
		s.Add(EdgeID(i))
	}
	return s
}

// EdgeSetOfWords returns the EdgeSet over edge IDs 0..n-1 whose bits are
// the first (n+63)/64 words, shared rather than copied: a caller that fills
// many sets can keep them in one slab.
func EdgeSetOfWords(words []uint64, n int) EdgeSet {
	w := (n + 63) / 64
	return EdgeSet{words: words[:w:w], n: n}
}

// Len returns the capacity (number of edge IDs addressable).
func (s EdgeSet) Len() int { return s.n }

// Add sets bit id.
func (s EdgeSet) Add(id EdgeID) { s.words[id>>6] |= 1 << (uint(id) & 63) }

// AddIf sets bit id when on, without branching on it: world samplers decide
// on by a coin flip, which a branch predictor cannot learn.
func (s EdgeSet) AddIf(id EdgeID, on bool) {
	var b uint64
	if on {
		b = 1
	}
	s.words[id>>6] |= b << (uint(id) & 63)
}

// Remove clears bit id.
func (s EdgeSet) Remove(id EdgeID) { s.words[id>>6] &^= 1 << (uint(id) & 63) }

// Set writes bit id to present.
func (s EdgeSet) Set(id EdgeID, present bool) {
	if present {
		s.Add(id)
	} else {
		s.Remove(id)
	}
}

// Contains reports whether bit id is set.
func (s EdgeSet) Contains(id EdgeID) bool {
	return s.words[id>>6]&(1<<(uint(id)&63)) != 0
}

// Count returns the number of set bits.
func (s EdgeSet) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (s EdgeSet) Clone() EdgeSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return EdgeSet{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of o (same capacity required).
func (s EdgeSet) CopyFrom(o EdgeSet) { copy(s.words, o.words) }

// Clear resets every bit.
func (s EdgeSet) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ContainsAll reports whether every bit of o is set in s.
func (s EdgeSet) ContainsAll(o EdgeSet) bool {
	for i, w := range o.words {
		if w&^s.words[i] != 0 {
			return false
		}
	}
	return true
}

// FirstNotIn returns the lowest bit of s that o lacks, and false when every
// bit of s is set in o.
func (s EdgeSet) FirstNotIn(o EdgeSet) (EdgeID, bool) {
	for i, w := range s.words {
		if d := w &^ o.words[i]; d != 0 {
			return EdgeID(i*64 + bits.TrailingZeros64(d)), true
		}
	}
	return 0, false
}

// Intersects reports whether s and o share any set bit.
func (s EdgeSet) Intersects(o EdgeSet) bool {
	m := len(s.words)
	if len(o.words) < m {
		m = len(o.words)
	}
	for i := 0; i < m; i++ {
		if s.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o have identical contents.
func (s EdgeSet) Equal(o EdgeSet) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// UnionWith sets s = s ∪ o.
func (s EdgeSet) UnionWith(o EdgeSet) {
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// Slice returns the set bits in increasing order.
func (s EdgeSet) Slice() []EdgeID {
	out := make([]EdgeID, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, EdgeID(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// Key returns a string usable as a map key identifying the set contents.
func (s EdgeSet) Key() string {
	b := make([]byte, 0, len(s.words)*8)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			b = append(b, byte(w>>(8*i)))
		}
	}
	return string(b)
}
