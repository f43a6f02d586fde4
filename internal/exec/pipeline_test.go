package exec

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sql"
	"lakeguard/internal/types"
)

var aliceCtx = catalog.RequestContext{User: alice, Compute: catalog.ComputeStandard, SessionID: "sa"}

// govEvent is row id of seedEventsTable's data as alice may see it, or ok
// false when the deletion vector or the row filter hides it.
func govEvent(id int64, rowsPerFile int64) (row []types.Value, ok bool) {
	file, r := id/rowsPerFile, id%rowsPerFile
	if file == 3 || (file == 1 || file == 2) && r%7 == 0 { // maskEventsFiles
		return nil, false
	}
	if id%13 == 0 || (id*37)%1000%3 == 0 { // row filter v % 3 <> 0; v is NULL when id%13 == 0
		return nil, false
	}
	score := types.Float64(float64(id%97) * 1.5)
	if id%17 == 0 {
		score = types.Null(types.KindFloat64)
	}
	cat := strings.ToUpper([]string{"alpha", "beta", "gamma", "delta"}[id%4]) // the mask
	return []types.Value{types.Int64(id), types.Int64((id * 37) % 1000), score, types.String(cat)}, true
}

// seedPolicyEvents seeds a 16-file events table named gov with a partial and a
// full deletion vector, a row filter on v and a computing mask on cat, and
// grants alice SELECT.
func seedPolicyEvents(t *testing.T, w *world, rowsPerFile int) {
	t.Helper()
	seedEventsTableNamed(t, w, "gov", 16, rowsPerFile)
	maskEventsFiles(t, w, "gov")
	if err := w.cat.SetRowFilter(adminCtx(), []string{"gov"}, "v % 3 <> 0 OR IS_ACCOUNT_GROUP_MEMBER('auditors')", false); err != nil {
		t.Fatal(err)
	}
	if err := w.cat.SetColumnMask(adminCtx(), []string{"gov"}, "cat", "CASE WHEN IS_ACCOUNT_GROUP_MEMBER('auditors') THEN cat ELSE upper(cat) END", false); err != nil {
		t.Fatal(err)
	}
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"gov"}, alice)
}

// A governed table behind a row filter, a computing mask and a partial
// deletion vector answers with the reference rows at any worker count,
// whether a filter reads a raw column or the masked one and whether the
// chain ends in a projection, a sort or an aggregate.
func TestPipelineGovernedReferenceRows(t *testing.T) {
	w := newWorld(t)
	const rowsPerFile = 64
	seedPolicyEvents(t, w, rowsPerFile)
	var visible [][]types.Value
	for id := int64(0); id < 16*rowsPerFile; id++ {
		if row, ok := govEvent(id, rowsPerFile); ok {
			visible = append(visible, row)
		}
	}
	render := func(rows [][]types.Value) string {
		var sb strings.Builder
		for _, r := range rows {
			fmt.Fprintln(&sb, r)
		}
		return sb.String()
	}
	// pick renders out(r) for every visible row r that keep accepts.
	pick := func(keep func(r []types.Value) bool, out func(r []types.Value) []types.Value) string {
		var rows [][]types.Value
		for _, r := range visible {
			if keep(r) {
				rows = append(rows, out(r))
			}
		}
		return render(rows)
	}
	groups := map[string][2]int64{}
	for _, r := range visible {
		if r[0].I%5 != 0 {
			g := groups[r[3].S]
			groups[r[3].S] = [2]int64{g[0] + 1, g[1] + r[1].I}
		}
	}
	var agg [][]types.Value
	for _, c := range []string{"ALPHA", "BETA", "DELTA", "GAMMA"} {
		agg = append(agg, []types.Value{types.String(c), types.Int64(groups[c][0]), types.Int64(groups[c][1])})
	}

	for _, c := range []struct{ query, want string }{
		{"SELECT id, v, cat FROM gov", pick(func([]types.Value) bool { return true },
			func(r []types.Value) []types.Value { return []types.Value{r[0], r[1], r[3]} })},
		{"SELECT id, cat FROM gov WHERE v > 500", pick(func(r []types.Value) bool { return r[1].I > 500 },
			func(r []types.Value) []types.Value { return []types.Value{r[0], r[3]} })},
		{"SELECT id, v * 2 AS twice FROM gov WHERE cat = 'GAMMA' AND score > 30",
			pick(func(r []types.Value) bool { return r[3].S == "GAMMA" && !r[2].Null && r[2].F > 30 },
				func(r []types.Value) []types.Value { return []types.Value{r[0], types.Int64(2 * r[1].I)} })},
		{"SELECT cat, COUNT(*) AS n, SUM(v) AS s FROM gov WHERE id % 5 <> 0 GROUP BY cat ORDER BY cat", render(agg)},
		{"SELECT id FROM gov WHERE cat = 'alpha'", ""},
	} {
		for _, workers := range []int{1, 2, 8} {
			w.engine.Parallelism = workers
			b, err := w.tryQuery(aliceCtx, c.query)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.query, err)
			}
			if got := orderedRows(b); got != c.want {
				t.Fatalf("workers=%d %s:\ngot\n%s\nwant\n%s", workers, c.query, got, c.want)
			}
		}
	}
	w.engine.Parallelism = 0
}

// Expressions above a policy barrier evaluate only the rows the row filter
// authorized: a CAST that throws on every hidden row, in a projection or in
// a filter, and a UDF that fails on a hidden row, all succeed.
func TestPipelineExpressionsSeeOnlyAuthorizedRows(t *testing.T) {
	w := newWorld(t)
	schema := types.NewSchema(types.Field{Name: "code", Kind: types.KindString}, types.Field{Name: "region", Kind: types.KindString})
	if err := w.cat.CreateTable(adminCtx(), []string{"codes"}, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	var batches []*types.Batch
	for f := 0; f < 4; f++ {
		bb := types.NewBatchBuilder(schema, 4)
		for _, r := range [][2]string{{"x", "EU"}, {fmt.Sprint(2*f + 1), "US"}, {"y", "EU"}, {fmt.Sprint(2*f + 2), "US"}} {
			bb.AppendRow([]types.Value{types.String(r[0]), types.String(r[1])})
		}
		batches = append(batches, bb.Build())
	}
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"codes"}, batches); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"codes", "sales"} {
		if err := w.cat.SetRowFilter(adminCtx(), []string{table}, "region = 'US'", false); err != nil {
			t.Fatal(err)
		}
		w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{table}, alice)
	}

	for _, c := range []struct {
		query string
		rows  int
	}{
		{"SELECT CAST(code AS BIGINT) AS c FROM codes", 8},
		{"SELECT CAST(code AS BIGINT) + 1 AS c FROM codes WHERE code <> '3'", 7},
		{"SELECT code FROM codes WHERE CAST(code AS BIGINT) > 4", 4},
		{"SELECT n FROM (SELECT CAST(code AS BIGINT) AS n FROM codes) s WHERE n % 2 = 0", 4},
	} {
		for _, workers := range []int{1, 2, 8} {
			w.engine.Parallelism = workers
			b, err := w.tryQuery(aliceCtx, c.query)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.query, err)
			}
			if b.NumRows() != c.rows {
				t.Fatalf("workers=%d %s: %d rows, want %d\n%s", workers, c.query, b.NumRows(), c.rows, b.String())
			}
		}
	}

	// f fails on the hidden EU row whose amount is 200.
	for _, workers := range []int{1, 2} {
		w.engine.Parallelism = workers
		for _, q := range []string{
			"SELECT f(seller, amount) AS r FROM sales",
			"SELECT seller FROM sales WHERE f(seller, amount) < 0",
		} {
			b, err := runAs(w, aliceCtx, "return 1 / (x - 200)", types.KindFloat64, q)
			if err != nil {
				t.Fatalf("workers=%d %s: the UDF saw a hidden row: %v", workers, q, err)
			}
			if b.NumRows() != 3 {
				t.Fatalf("workers=%d %s: %d rows, want the 3 US rows\n%s", workers, q, b.NumRows(), b.String())
			}
		}
	}
	w.engine.Parallelism = 0
}

// runAs runs sqlText as ctx's user with the temporary function
// `f(s STRING, x DOUBLE)` whose body is body.
func runAs(w *world, ctx catalog.RequestContext, body string, returns types.Kind, sqlText string) (*types.Batch, error) {
	q, err := sql.ParseQuery(sqlText)
	if err != nil {
		return nil, err
	}
	a := analyzer.New(w.cat, ctx)
	a.TempFuncs = map[string]analyzer.TempFunc{"f": {
		Params:  []types.Field{{Name: "s", Kind: types.KindString}, {Name: "x", Kind: types.KindFloat64}},
		Returns: returns,
		Body:    body,
		Owner:   admin,
	}}
	resolved, err := a.Analyze(q)
	if err != nil {
		return nil, err
	}
	return w.engine.ExecuteToBatch(NewQueryContext(w.cat, ctx), optimizer.Optimize(resolved, optimizer.DefaultOptions()))
}

// A governed scan-aggregate allocates for the rows that survive its
// filters, not for the rows it reads: its whole execution stays within
// twice the survivors' gathered width plus a fixed allowance. Each policy
// step narrowing a selection and the chain gathering once is what keeps
// it there; a copy of the candidate rows per step would not fit.
// Allocation is read process-wide, so the smallest of several windows is
// the one compared.
func TestGovernedScanAggAllocatesForSurvivors(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	w, p, survivors := governedScanAgg(t)
	const width = 24 // cat (a string header) and v
	for _, workers := range []int{1, 2} {
		least := w.leastAlloc(t, workers, p)
		if bound := float64(2*width*survivors + 256<<10); least > bound {
			t.Errorf("workers=%d: a governed scan-aggregate of %d survivors allocated %.0f bytes, want at most %.0f",
				workers, survivors, least, bound)
		}
	}
}

// The same governed scan-aggregate allocates less than one gather of its
// survivors' two columns would: the aggregate reads the scan's cached
// columns through the selection its filters left, and its hash and group-id
// buffers serve every batch.
func TestGovernedScanAggGathersNoSurvivors(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation")
	}
	w, p, survivors := governedScanAgg(t)
	const width = 24 // cat (a string header) and v
	for _, workers := range []int{1, 2} {
		least := w.leastAlloc(t, workers, p)
		t.Logf("workers=%d: %d survivors, %.0f bytes", workers, survivors, least)
		if bound := float64(width * survivors); least >= bound {
			t.Errorf("workers=%d: a governed scan-aggregate of %d survivors allocated %.0f bytes, want less than one gather of them, %.0f",
				workers, survivors, least, bound)
		}
	}
}

// governedScanAgg seeds 16 files of 4,096 rows behind a row filter and a
// column mask, and plans alice's filtered scan-aggregate over them. It
// returns the plan and the number of rows that survive its filters.
func governedScanAgg(t testing.TB) (*world, plan.Node, int) {
	w := newWorld(t)
	const rowsPerFile = 4096
	seedEventsTableNamed(t, w, "gov", 16, rowsPerFile)
	if err := w.cat.SetRowFilter(adminCtx(), []string{"gov"}, "cat <> 'beta' OR IS_ACCOUNT_GROUP_MEMBER('auditors')", false); err != nil {
		t.Fatal(err)
	}
	if err := w.cat.SetColumnMask(adminCtx(), []string{"gov"}, "score", "CASE WHEN IS_ACCOUNT_GROUP_MEMBER('auditors') THEN score ELSE NULL END", false); err != nil {
		t.Fatal(err)
	}
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"gov"}, alice)
	p, err := w.planAs(aliceCtx, "SELECT cat, SUM(v) AS s, COUNT(*) AS n FROM gov WHERE v > 250 GROUP BY cat")
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for id := int64(0); id < 16*rowsPerFile; id++ {
		if v := (id * 37) % 1000; id%13 != 0 && id%4 != 1 && v > 250 {
			survivors++
		}
	}
	return w, p, survivors
}

// leastAlloc runs p as alice at the given parallelism once to fill the
// batch cache, then returns the fewest bytes any of five more runs
// allocated. Allocation is read process-wide, so the smallest window is
// the one that counts.
func (w *world) leastAlloc(t *testing.T, workers int, p plan.Node) float64 {
	w.engine.Parallelism = workers
	defer func() { w.engine.Parallelism = 0 }()
	run := func() {
		if _, err := w.engine.Execute(NewQueryContext(w.cat, aliceCtx), p); err != nil {
			t.Fatal(err)
		}
	}
	run()
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return least
}

// planAs parses, analyzes and optimizes sqlText for ctx's user.
func (w *world) planAs(ctx catalog.RequestContext, sqlText string) (plan.Node, error) {
	q, err := sql.ParseQuery(sqlText)
	if err != nil {
		return nil, err
	}
	resolved, err := analyzer.New(w.cat, ctx).Analyze(q)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(resolved, optimizer.DefaultOptions()), nil
}
