//go:build !race

package arrowipc

const raceEnabled = false
