//go:build !race

package connect

const raceEnabled = false
