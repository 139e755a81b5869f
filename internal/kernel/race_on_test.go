//go:build race

package kernel

// raceEnabled reports that the race detector is on: sync.Pool then drops
// items at random, so a test of what vm's spare regions save cannot hold.
const raceEnabled = true
