//go:build !race

package prob_test

// raceEnabled reports whether the race detector is compiled in; alloc
// pins that demand exact counts skip under it (the race runtime itself
// allocates, which is not what they measure).
const raceEnabled = false
