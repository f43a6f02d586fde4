//go:build race

package bench

// table2Repetitions is TestTable2Shape's repetition count. The race
// detector slows every run several-fold, so under it the test keeps the
// repetition count it had before the interleaved harness, which holds the
// package well inside the default test timeout; the assertions are the same.
const table2Repetitions = 5
