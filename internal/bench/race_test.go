//go:build race

package bench

// raceEnabled reports a race-detector build. TestTable2Shape skips under
// it: the detector slows the sandboxed path's channel synchronisation far
// more than in-process execution, so the overhead ratio it would measure is
// not the one the test's bound guards.
const raceEnabled = true
