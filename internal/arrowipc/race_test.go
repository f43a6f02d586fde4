//go:build race

package arrowipc

// raceEnabled: the race detector's instrumentation adds allocations, so
// allocation-count assertions are meaningless under it.
const raceEnabled = true
