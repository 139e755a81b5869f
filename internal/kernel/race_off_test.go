//go:build !race

package kernel

// raceEnabled reports that the race detector is on (race_on_test.go).
const raceEnabled = false
