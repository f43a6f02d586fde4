//go:build race

package connect

// raceEnabled: the race detector drops pooled objects at random and adds
// allocations, so allocation assertions are meaningless under it.
const raceEnabled = true
