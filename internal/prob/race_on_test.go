//go:build race

package prob_test

const raceEnabled = true
