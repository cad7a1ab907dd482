//go:build !race

package iso

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
