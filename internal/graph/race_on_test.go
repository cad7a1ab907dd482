//go:build race

package graph

const raceEnabled = true
