//go:build !race

package bench

// table2Repetitions is TestTable2Shape's repetition count: enough
// interleaved repetitions to resolve a gap of a few points between the
// simple and the hash UDF's overhead.
const table2Repetitions = 15
