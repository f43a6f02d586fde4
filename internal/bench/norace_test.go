//go:build !race

package bench

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
