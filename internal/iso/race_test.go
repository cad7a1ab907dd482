//go:build race

package iso

// raceEnabled reports a -race build. The detector's runtime allocates on
// its own and drains sync.Pools at random, so the allocation pins skip
// themselves under it; the plain `go test ./...` run still enforces them.
const raceEnabled = true
