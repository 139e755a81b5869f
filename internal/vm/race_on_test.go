//go:build race

package vm

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so a test of what spare hands back cannot hold.
const raceEnabled = true
