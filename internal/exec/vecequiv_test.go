package exec

import (
	"io"
	"math"
	"testing"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// seedEdgeTable creates a small table full of hash-kernel edge cases: NULL
// join/group keys, integral floats (which share a hash class with equal
// BIGINTs), booleans (which share a hash class with 0/1 BIGINTs but never
// compare equal to them — a guaranteed hash collision the verify kernels
// must reject), and duplicated keys.
func seedEdgeTable(t testing.TB, w *world) {
	t.Helper()
	schema := types.NewSchema(
		types.Field{Name: "bi", Kind: types.KindInt64, Nullable: true},
		types.Field{Name: "fl", Kind: types.KindFloat64, Nullable: true},
		types.Field{Name: "bo", Kind: types.KindBool},
		types.Field{Name: "st", Kind: types.KindString, Nullable: true},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{"edges"}, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	bb := types.NewBatchBuilder(schema, 16)
	rows := [][]types.Value{
		{types.Int64(0), types.Float64(0), types.Bool(false), types.String("a")},
		{types.Int64(1), types.Float64(1), types.Bool(true), types.String("b")},
		{types.Int64(1), types.Float64(1.5), types.Bool(true), types.String("b")},
		{types.Int64(2), types.Float64(2), types.Bool(false), types.String("")},
		{types.Null(types.KindInt64), types.Float64(3), types.Bool(true), types.String("c")},
		{types.Int64(3), types.Null(types.KindFloat64), types.Bool(false), types.Null(types.KindString)},
		{types.Int64(-7), types.Float64(-7), types.Bool(true), types.String("d")},
		{types.Int64(1), types.Float64(2.25), types.Bool(false), types.String("a")},
		{types.Null(types.KindInt64), types.Null(types.KindFloat64), types.Bool(true), types.Null(types.KindString)},
		{types.Int64(1000), types.Float64(1000), types.Bool(false), types.String("e")},
	}
	for _, r := range rows {
		bb.AppendRow(r)
	}
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"edges"}, []*types.Batch{bb.Build()}); err != nil {
		t.Fatal(err)
	}
	// An empty table for empty-build-side joins.
	eschema := types.NewSchema(
		types.Field{Name: "k", Kind: types.KindInt64},
		types.Field{Name: "w", Kind: types.KindString},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{"nothing"}, eschema, false, ""); err != nil {
		t.Fatal(err)
	}
	// DISTINCT edge values: NaNs (two bit patterns), 1 and 1.0, 0.0 and
	// -0.0, NULLs, and booleans beside the BIGINTs they hash with.
	dschema := types.NewSchema(
		types.Field{Name: "d", Kind: types.KindFloat64, Nullable: true},
		types.Field{Name: "i", Kind: types.KindInt64, Nullable: true},
		types.Field{Name: "b", Kind: types.KindBool},
	)
	if err := w.cat.CreateTable(adminCtx(), []string{"dvals"}, dschema, false, ""); err != nil {
		t.Fatal(err)
	}
	nan, otherNaN := math.NaN(), math.Float64frombits(math.Float64bits(math.NaN())^1)
	db := types.NewBatchBuilder(dschema, 12)
	for _, r := range [][]types.Value{
		{types.Float64(1), types.Int64(1), types.Bool(true)},
		{types.Float64(nan), types.Int64(1), types.Bool(false)},
		{types.Float64(1), types.Int64(1), types.Bool(true)},
		{types.Null(types.KindFloat64), types.Null(types.KindInt64), types.Bool(true)},
		{types.Float64(otherNaN), types.Int64(2), types.Bool(true)},
		{types.Float64(0), types.Int64(0), types.Bool(false)},
		{types.Float64(math.Copysign(0, -1)), types.Int64(0), types.Bool(false)},
		{types.Float64(nan), types.Int64(1), types.Bool(false)},
		{types.Null(types.KindFloat64), types.Null(types.KindInt64), types.Bool(true)},
		{types.Float64(1.5), types.Int64(1), types.Bool(true)},
	} {
		db.AppendRow(r)
	}
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"dvals"}, []*types.Batch{db.Build()}); err != nil {
		t.Fatal(err)
	}
}

// vecEquivQueries is the corpus for the engine-vs-oracle harness: every join
// type (including RIGHT/FULL, which generateQueries skips) with and without
// equi keys, NULL keys, cross-kind numeric keys, hash-class collisions, empty
// build sides, residual conditions, DISTINCT edge values, and aggregations
// from two groups up to enough to force group tables to grow and (under a
// tiny budget) spill.
var vecEquivQueries = []string{
	// Joins over the multi-file events table — big enough to spill.
	"SELECT e.id, e.v, f.id FROM events e JOIN events f ON e.v = f.id WHERE e.id < 400",
	"SELECT e.id, q.quota FROM events e LEFT JOIN quotas q ON e.cat = q.seller WHERE e.id % 53 = 0",
	"SELECT e.id, f.v FROM events e RIGHT JOIN events f ON e.id = f.v WHERE f.id < 200",
	"SELECT e.id, f.id FROM events e FULL JOIN events f ON e.id = f.v WHERE e.id < 150 OR e.id IS NULL",
	"SELECT e.id FROM events e LEFT SEMI JOIN events f ON e.id = f.v",
	"SELECT e.id FROM events e LEFT ANTI JOIN events f ON e.id = f.v WHERE e.id < 500",
	"SELECT e.id, f.id FROM events e JOIN events f ON e.id = f.id AND e.v < f.score WHERE e.id < 300",
	// Multi-key join with a nullable key component.
	"SELECT e.id, f.id FROM events e JOIN events f ON e.v = f.v AND e.cat = f.cat WHERE e.id < 120 AND f.id < 240",
	// Edge-case keys: NULLs never match; integral floats equal BIGINTs
	// cross-kind; booleans cast to 0/1 match BIGINTs.
	"SELECT a.bi, b.fl FROM edges a JOIN edges b ON a.bi = b.fl",
	"SELECT a.st, b.st FROM edges a LEFT JOIN edges b ON a.st = b.st",
	"SELECT a.bi, b.bi FROM edges a FULL JOIN edges b ON a.bi = b.bi",
	"SELECT a.bi FROM edges a LEFT ANTI JOIN edges b ON a.bi = b.fl",
	"SELECT a.bi, b.bo FROM edges a JOIN edges b ON a.bi = CAST(b.bo AS BIGINT)",
	// Empty build side: inner join emits nothing (and the runtime filter
	// prunes the whole probe side); outer joins must still pad correctly.
	"SELECT e.id, n.w FROM events e JOIN nothing n ON e.id = n.k",
	"SELECT e.id, n.w FROM events e LEFT JOIN nothing n ON e.id = n.k WHERE e.id < 40",
	"SELECT n.k, e.id FROM nothing n RIGHT JOIN events e ON n.k = e.id WHERE e.id < 40",
	"SELECT e.id FROM events e LEFT SEMI JOIN nothing n ON e.id = n.k",
	"SELECT e.id FROM events e LEFT ANTI JOIN nothing n ON e.id = n.k WHERE e.id < 40",
	// Aggregations: few groups, many groups (forces table growth + spill
	// under a tiny budget), NULL keys, float keys, DISTINCT, empty input.
	"SELECT cat, COUNT(*) AS n, SUM(v) AS sv, AVG(score) AS a FROM events GROUP BY cat",
	"SELECT v, COUNT(*) AS n FROM events GROUP BY v",
	"SELECT id % 350 AS g, SUM(score) AS s, MIN(v) AS lo, MAX(v) AS hi FROM events GROUP BY id % 350",
	"SELECT score, COUNT(*) AS n FROM events WHERE id < 300 GROUP BY score",
	"SELECT bi, COUNT(*) AS n, SUM(fl) AS s FROM edges GROUP BY bi",
	"SELECT fl, MIN(bi) AS lo, MAX(st) AS hi FROM edges GROUP BY fl",
	"SELECT st, COUNT(DISTINCT bi) AS db, SUM(DISTINCT fl) AS df FROM edges GROUP BY st",
	"SELECT COUNT(*) AS n, SUM(v) AS s, MIN(score) AS lo FROM events WHERE id < 0",
	"SELECT k, COUNT(*) AS n FROM nothing GROUP BY k",
	"SELECT COUNT(*) AS n FROM nothing",
	"SELECT cat, v % 5 AS m, COUNT(*) AS n, AVG(v) AS av FROM events GROUP BY cat, v % 5",
	// Filtered aggregations over bare-reference keys and arguments: the
	// aggregate reads the scan's columns through the filter's selection,
	// and under a tiny budget spills rows picked through it.
	"SELECT v, MIN(cat) AS lo, MAX(cat) AS hi, COUNT(*) AS n FROM events WHERE id % 3 <> 0 GROUP BY v",
	"SELECT bo, MIN(st) AS lo, MAX(st) AS hi, COUNT(st) AS c FROM edges WHERE bi <> 2 OR bi IS NULL GROUP BY bo",
	"SELECT cat, COUNT(DISTINCT v) AS dv, SUM(DISTINCT score) AS ds FROM events WHERE id % 5 <> 1 GROUP BY cat",
	"SELECT cat, AVG(score) AS a, AVG(v) AS av FROM events WHERE v < 700 GROUP BY cat",
	"SELECT d, COUNT(*) AS n, MAX(i) AS hi FROM dvals WHERE b GROUP BY d",
	"SELECT cat, v % 7 AS m, SUM(score) AS s, COUNT(*) AS n FROM events WHERE id > 100 GROUP BY cat, v % 7",
	"SELECT COUNT(*) AS n, SUM(v) AS s, AVG(score) AS a, MIN(cat) AS lo FROM events WHERE v % 1000 = 1000",
	// Join feeding an aggregation: both vectorized operators stacked.
	"SELECT e.cat, COUNT(*) AS n, SUM(f.v) AS s FROM events e JOIN events f ON e.id = f.v GROUP BY e.cat",
	// Residual conjuncts run in order, each only on the pairs the earlier
	// ones kept: the throwing cast must never see a pair, with or without
	// equi keys.
	"SELECT a.bi FROM edges a JOIN edges b ON a.bi = b.bi AND a.fl > b.fl + 10000 AND CAST(b.st AS BIGINT) > a.bi",
	"SELECT a.bi FROM edges a JOIN edges b ON a.fl > b.fl + 10000 AND CAST(b.st AS BIGINT) > a.bi",
	// Keyless joins: the block nested loop, every join type.
	"SELECT a.bi, b.st FROM edges a CROSS JOIN edges b",
	"SELECT a.bi, b.fl FROM edges a, edges b",
	"SELECT a.bi, b.bi FROM edges a, edges b WHERE a.bi = b.bi",
	"SELECT a.bi, b.fl FROM edges a JOIN edges b ON a.bi < b.fl",
	"SELECT a.bi, b.fl FROM edges a LEFT JOIN edges b ON a.bi < b.fl",
	"SELECT a.bi, b.fl FROM edges a RIGHT JOIN edges b ON a.bi < b.fl",
	"SELECT a.fl, b.fl FROM edges a FULL JOIN edges b ON a.fl > b.fl",
	"SELECT a.bi, a.st FROM edges a LEFT SEMI JOIN edges b ON a.bi < b.fl",
	"SELECT a.bi, a.st FROM edges a LEFT ANTI JOIN edges b ON a.bi < b.fl",
	"SELECT e.id, f.id FROM events e JOIN events f ON e.id < f.v AND f.score < 3 WHERE e.id < 60",
	"SELECT e.id, f.id FROM events e LEFT JOIN events f ON e.v > f.id + 990 WHERE e.id < 200",
	// Keyless joins against an empty side.
	"SELECT a.bi, n.k FROM edges a CROSS JOIN nothing n",
	"SELECT a.bi, n.w FROM edges a LEFT JOIN nothing n ON a.bi < n.k",
	"SELECT n.k, a.bi FROM nothing n RIGHT JOIN edges a ON n.k < a.bi",
	"SELECT a.bi, n.k FROM edges a FULL JOIN nothing n ON a.bi > n.k",
	"SELECT a.bi FROM edges a LEFT SEMI JOIN nothing n ON a.bi > n.k",
	"SELECT a.bi FROM edges a LEFT ANTI JOIN nothing n ON a.bi > n.k",
	"SELECT n.k, a.bi FROM nothing n LEFT JOIN edges a ON n.k < a.bi",
	// DISTINCT: NULLs, 1 vs 1.0 (equal across kinds, one hash class), NaN
	// (equal to every float but hashed apart), TRUE vs 1 (one hash class,
	// never equal), LIMIT, over a join, and UNION without ALL.
	"SELECT DISTINCT bi FROM edges",
	"SELECT DISTINCT bi, st FROM edges",
	"SELECT DISTINCT d FROM dvals",
	"SELECT DISTINCT d, i FROM dvals",
	"SELECT DISTINCT i, b FROM dvals",
	"SELECT DISTINCT x FROM (SELECT CAST(bi AS DOUBLE) AS x FROM edges UNION ALL SELECT fl AS x FROM edges) u",
	"SELECT DISTINCT x FROM (SELECT b AS x FROM dvals UNION ALL SELECT i = 1 AS x FROM dvals) u",
	"SELECT DISTINCT x, y FROM (SELECT i AS x, b AS y FROM dvals UNION ALL SELECT i AS x, i = 1 AS y FROM dvals) u",
	"SELECT DISTINCT cat FROM events LIMIT 2",
	"SELECT DISTINCT v FROM events LIMIT 50",
	"SELECT DISTINCT a.bi, b.st FROM edges a JOIN edges b ON a.bi = b.bi",
	"SELECT bi FROM edges UNION SELECT bi FROM edges",
	"SELECT d FROM dvals UNION SELECT fl FROM edges",
	"SELECT st FROM edges UNION SELECT w FROM nothing",
}

// TestVecRowEquivalence is the execution property test: for every corpus
// query, the engine's vectorized join, aggregation and DISTINCT operators
// must return row-for-row IDENTICAL output (same rows, same order) as the
// row-at-a-time oracle (oracle_test.go), or fail exactly when it fails — at
// parallelism 1, 2 and 8, and again with SpillBytes=1 so every hash table
// immediately overflows and takes the spill path.
func TestVecRowEquivalence(t *testing.T) {
	w := newWorld(t)
	seedQuotas(t, w)
	seedEventsTable(t, w, 16, 64)
	seedEdgeTable(t, w)

	queries := append(generateQueries(60, 23), vecEquivQueries...)

	type config struct {
		name       string
		workers    int
		spillBytes int64
	}
	configs := []config{
		{name: "w1", workers: 1},
		{name: "w2", workers: 2},
		{name: "w8", workers: 8},
		{name: "spill-w1", workers: 1, spillBytes: 1},
		{name: "spill-w2", workers: 2, spillBytes: 1},
		{name: "spill-w8", workers: 8, spillBytes: 1},
	}
	defer func() {
		w.engine.Parallelism = 0
		w.engine.SpillBytes = 0
	}()
	for _, q := range queries {
		p, err := w.planWithOptions(q, optimizer.DefaultOptions())
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		w.engine.Parallelism, w.engine.SpillBytes = 1, 0
		var ref string
		refB, refErr := oracleRun(w.engine, NewQueryContext(w.cat, adminCtx()), p)
		if refErr == nil {
			ref = orderedRows(refB)
		}
		for _, c := range configs {
			w.engine.Parallelism, w.engine.SpillBytes = c.workers, c.spillBytes
			b, err := w.engine.ExecuteToBatch(NewQueryContext(w.cat, adminCtx()), p)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("error divergence for %q [%s]: oracle=%v engine=%v", q, c.name, refErr, err)
			}
			if refErr != nil {
				continue
			}
			if got := orderedRows(b); got != ref {
				t.Fatalf("ordered-result divergence for %q [%s]:\noracle:\n%s\nengine:\n%s",
					q, c.name, ref, got)
			}
		}
	}
}

// seedSkewTables creates bl and br, 3000 rows each of (k, v = row number):
// br.k is 0 on its first 2500 rows and distinct after, bl.k is 0 on every
// third row and distinct otherwise, so an equi-join on k has one bucket of
// 2500 build rows that a third of the probe rows hit.
func seedSkewTables(t testing.TB, w *world) {
	t.Helper()
	const n = 3000
	schema := types.NewSchema(
		types.Field{Name: "k", Kind: types.KindInt64},
		types.Field{Name: "v", Kind: types.KindInt64},
	)
	for _, tbl := range []string{"bl", "br"} {
		if err := w.cat.CreateTable(adminCtx(), []string{tbl}, schema, false, ""); err != nil {
			t.Fatal(err)
		}
		bb := types.NewBatchBuilder(schema, n)
		for i := 0; i < n; i++ {
			k := int64(i)
			if (tbl == "br" && i < 2500) || (tbl == "bl" && i%3 == 0) {
				k = 0
			}
			bb.AppendRow([]types.Value{types.Int64(k), types.Int64(int64(i))})
		}
		if _, err := w.cat.AppendToTable(adminCtx(), []string{tbl}, []*types.Batch{bb.Build()}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinProbeBlocksBounded runs a keyless and a skewed equi-join of 3000 x
// 3000 rows with a selective residual. Each must equal the oracle, and no
// probe block may have held more candidate pairs than joinBlockPairs or, when
// larger, one left row's bucket.
func TestJoinProbeBlocksBounded(t *testing.T) {
	w := newWorld(t)
	seedSkewTables(t, w)
	for _, q := range []string{
		"SELECT l.v, r.v FROM bl l JOIN br r ON l.v + r.v = 2999",
		"SELECT l.v, r.v FROM bl l JOIN br r ON l.k = r.k AND l.v + r.v > 5990",
	} {
		p, err := w.planWithOptions(q, optimizer.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var j *plan.Join
		plan.Walk(p, func(n plan.Node) bool {
			if x, ok := n.(*plan.Join); ok {
				j = x
			}
			return j == nil
		})
		qc := NewQueryContext(w.cat, adminCtx())
		want, err := oracleJoin(w.engine, qc, j)
		if err != nil {
			t.Fatal(err)
		}
		qc.rf = newRFRegistry()
		op, err := w.engine.build(qc, j)
		if err != nil {
			t.Fatal(err)
		}
		var got []*types.Batch
		for {
			b, err := op.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b)
		}
		op.Close()
		gotB, err := arrowipc.ConcatBatches(j.Schema(), got)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumRows() == 0 || orderedRows(gotB) != orderedRows(want) {
			t.Fatalf("%q: engine rows differ from the oracle's %d rows:\n%s", q, want.NumRows(), orderedRows(gotB))
		}
		jo := op.(*vecJoinOp)
		bucket := 0
		for b := 0; b+1 < len(jo.table.starts); b++ {
			bucket = max(bucket, int(jo.table.starts[b+1]-jo.table.starts[b]))
		}
		if jo.peakBlock == 0 || jo.peakBlock > max(joinBlockPairs, bucket) {
			t.Fatalf("%q: a probe block held %d candidate pairs (cap %d, largest bucket %d)",
				q, jo.peakBlock, joinBlockPairs, bucket)
		}
		t.Logf("%q: %d rows, largest block %d pairs, largest bucket %d", q, want.NumRows(), jo.peakBlock, bucket)
	}
}
