//go:build race

package servestats

// Under the race detector sync.Pool drops items at random, so the
// zero-allocation claim about KHop's pooled scratch cannot be checked.
func init() { raceEnabled = true }
