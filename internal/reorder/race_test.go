//go:build race

package reorder

// raceEnabled reports that the race detector instruments this test binary.
const raceEnabled = true
