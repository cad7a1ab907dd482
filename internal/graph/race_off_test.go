//go:build !race

package graph

// raceEnabled reports whether the race detector is compiled in: its
// instrumentation slows the canonical search an order of magnitude, so
// the timing bound on twin-rich shapes holds only without it.
const raceEnabled = false
