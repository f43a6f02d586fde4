package exec

import (
	"context"
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/catalog"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/sandbox"
	"lakeguard/internal/sql"
	"lakeguard/internal/storage"
	"lakeguard/internal/types"
)

const (
	admin = "admin@corp.com"
	alice = "alice@corp.com"
)

type world struct {
	cat    *catalog.Catalog
	engine *Engine
}

func adminCtx() catalog.RequestContext {
	return catalog.RequestContext{User: admin, Compute: catalog.ComputeStandard, SessionID: "s0"}
}

func newWorld(t testing.TB) *world {
	t.Helper()
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	schema := types.NewSchema(
		types.Field{Name: "amount", Kind: types.KindFloat64},
		types.Field{Name: "date", Kind: types.KindDate},
		types.Field{Name: "seller", Kind: types.KindString},
		types.Field{Name: "region", Kind: types.KindString},
	)
	if err := cat.CreateTable(adminCtx(), []string{"sales"}, schema, false, ""); err != nil {
		t.Fatal(err)
	}
	d, _ := types.DateFromString("2024-12-01")
	d2, _ := types.DateFromString("2024-12-02")
	bb := types.NewBatchBuilder(schema, 6)
	rows := []struct {
		amt    float64
		day    types.Value
		seller string
		region string
	}{
		{100, d, "ann", "US"},
		{200, d, "ben", "EU"},
		{50, d2, "ann", "US"},
		{75, d, "cat", "US"},
		{300, d2, "ben", "EU"},
		{25, d, "dan", "APAC"},
	}
	for _, r := range rows {
		bb.AppendRow([]types.Value{types.Float64(r.amt), r.day, types.String(r.seller), types.String(r.region)})
	}
	if _, err := cat.AppendToTable(adminCtx(), []string{"sales"}, []*types.Batch{bb.Build()}); err != nil {
		t.Fatal(err)
	}
	dispatcher := sandbox.NewDispatcher(sandbox.FactoryFunc(func(ctx context.Context, domain string) (*sandbox.Sandbox, error) {
		return sandbox.New(domain, sandbox.Config{}), nil
	}))
	return &world{
		cat:    cat,
		engine: &Engine{Tables: cat, Dispatcher: dispatcher, FuseUDFs: true},
	}
}

// query parses, analyzes, optimizes, and executes SQL as the given user.
func (w *world) query(t *testing.T, ctx catalog.RequestContext, sqlText string) *types.Batch {
	t.Helper()
	b, err := w.tryQuery(ctx, sqlText)
	if err != nil {
		t.Fatalf("query %q: %v", sqlText, err)
	}
	return b
}

func (w *world) tryQuery(ctx catalog.RequestContext, sqlText string) (*types.Batch, error) {
	q, err := sql.ParseQuery(sqlText)
	if err != nil {
		return nil, err
	}
	a := analyzer.New(w.cat, ctx)
	resolved, err := a.Analyze(q)
	if err != nil {
		return nil, err
	}
	optimized := optimizer.Optimize(resolved, optimizer.DefaultOptions())
	qc := NewQueryContext(w.cat, ctx)
	return w.engine.ExecuteToBatch(qc, optimized)
}

func col(b *types.Batch, name string) *types.Column {
	i := b.Schema.IndexOf(name)
	if i < 0 {
		panic("no column " + name)
	}
	return b.Cols[i]
}

func TestSelectWhere(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT amount, seller FROM sales WHERE region = 'US' ORDER BY amount")
	if b.NumRows() != 3 {
		t.Fatalf("rows = %d\n%s", b.NumRows(), b.String())
	}
	if col(b, "amount").Float64(0) != 50 || col(b, "seller").StringAt(2) != "ann" {
		t.Errorf("content:\n%s", b.String())
	}
}

func TestDateFilter(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT amount FROM sales WHERE date = '2024-12-01'")
	if b.NumRows() != 4 {
		t.Fatalf("rows = %d", b.NumRows())
	}
}

func TestArithmeticProjection(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT amount * 2 AS double, upper(seller) AS s FROM sales WHERE seller = 'ann' ORDER BY double")
	if b.NumRows() != 2 || col(b, "double").Float64(0) != 100 || col(b, "s").StringAt(0) != "ANN" {
		t.Errorf("result:\n%s", b.String())
	}
}

func TestGroupByAggregates(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), `
		SELECT region, SUM(amount) AS total, COUNT(*) AS n, MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS mean
		FROM sales GROUP BY region ORDER BY total DESC`)
	if b.NumRows() != 3 {
		t.Fatalf("rows = %d\n%s", b.NumRows(), b.String())
	}
	// EU: 200+300=500
	if col(b, "region").StringAt(0) != "EU" || col(b, "total").Float64(0) != 500 {
		t.Errorf("row 0:\n%s", b.String())
	}
	if col(b, "n").Int64(0) != 2 || col(b, "lo").Float64(0) != 200 || col(b, "hi").Float64(0) != 300 || col(b, "mean").Float64(0) != 250 {
		t.Errorf("aggregates:\n%s", b.String())
	}
}

func TestHaving(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT region FROM sales GROUP BY region HAVING SUM(amount) > 200 ORDER BY region")
	if b.NumRows() != 2 {
		t.Fatalf("rows = %d\n%s", b.NumRows(), b.String())
	}
	if col(b, "region").StringAt(0) != "EU" || col(b, "region").StringAt(1) != "US" {
		t.Errorf("result:\n%s", b.String())
	}
}

func TestCountDistinctAndGlobalAgg(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT COUNT(DISTINCT seller) AS sellers, COUNT(*) AS rows FROM sales")
	if b.NumRows() != 1 || col(b, "sellers").Int64(0) != 4 || col(b, "rows").Int64(0) != 6 {
		t.Errorf("result:\n%s", b.String())
	}
	// Global aggregate over empty input yields one row.
	b2 := w.query(t, adminCtx(), "SELECT COUNT(*) AS n FROM sales WHERE amount > 99999")
	if b2.NumRows() != 1 || col(b2, "n").Int64(0) != 0 {
		t.Errorf("empty agg:\n%s", b2.String())
	}
}

func TestJoins(t *testing.T) {
	w := newWorld(t)
	seedQuotas(t, w)

	inner := w.query(t, adminCtx(), `
		SELECT s.seller, SUM(s.amount) AS total, MAX(q.quota) AS quota
		FROM sales s JOIN quotas q ON s.seller = q.seller
		GROUP BY s.seller ORDER BY s.seller`)
	if inner.NumRows() != 2 {
		t.Fatalf("inner rows = %d\n%s", inner.NumRows(), inner.String())
	}
	if col(inner, "total").Float64(0) != 150 || col(inner, "quota").Float64(0) != 120 {
		t.Errorf("inner:\n%s", inner.String())
	}

	left := w.query(t, adminCtx(), `
		SELECT DISTINCT s.seller, q.quota FROM sales s LEFT JOIN quotas q ON s.seller = q.seller ORDER BY s.seller`)
	if left.NumRows() != 4 {
		t.Fatalf("left rows = %d\n%s", left.NumRows(), left.String())
	}
	// cat and dan have NULL quota.
	if !col(left, "quota").IsNull(2) || !col(left, "quota").IsNull(3) {
		t.Errorf("left join nulls:\n%s", left.String())
	}

	semi := w.query(t, adminCtx(), `SELECT DISTINCT seller FROM sales s LEFT SEMI JOIN quotas q ON s.seller = q.seller ORDER BY seller`)
	if semi.NumRows() != 2 {
		t.Errorf("semi:\n%s", semi.String())
	}
	anti := w.query(t, adminCtx(), `SELECT DISTINCT seller FROM sales s LEFT ANTI JOIN quotas q ON s.seller = q.seller ORDER BY seller`)
	if anti.NumRows() != 2 || col(anti, "seller").StringAt(0) != "cat" {
		t.Errorf("anti:\n%s", anti.String())
	}

	right := w.query(t, adminCtx(), `
		SELECT q.seller, s.amount FROM sales s RIGHT JOIN quotas q ON s.seller = q.seller ORDER BY q.seller`)
	// ann(2 rows), ben(2 rows), zoe(1 unmatched row)
	if right.NumRows() != 5 {
		t.Fatalf("right rows = %d\n%s", right.NumRows(), right.String())
	}
	cross := w.query(t, adminCtx(), "SELECT COUNT(*) AS n FROM sales CROSS JOIN quotas")
	if col(cross, "n").Int64(0) != 18 {
		t.Errorf("cross:\n%s", cross.String())
	}
}

func TestLimitOffset(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT amount FROM sales ORDER BY amount LIMIT 2 OFFSET 1")
	if b.NumRows() != 2 || col(b, "amount").Float64(0) != 50 || col(b, "amount").Float64(1) != 75 {
		t.Errorf("result:\n%s", b.String())
	}
}

func TestUnionAndDistinct(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT region FROM sales UNION SELECT region FROM sales ORDER BY region")
	if b.NumRows() != 3 {
		t.Errorf("union distinct rows = %d\n%s", b.NumRows(), b.String())
	}
	b2 := w.query(t, adminCtx(), "SELECT region FROM sales UNION ALL SELECT region FROM sales")
	if b2.NumRows() != 12 {
		t.Errorf("union all rows = %d", b2.NumRows())
	}
}

// UNION's branches may name their columns differently; the result takes
// the left branch's names, whether it is concatenated directly, sorted
// above the union or sorted inside a branch.
func TestUnionAllBranchNamesDiffer(t *testing.T) {
	w := newWorld(t)
	for _, q := range []string{
		"SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales",
		"SELECT amount AS a FROM sales UNION ALL (SELECT amount AS b FROM sales ORDER BY b)",
		"SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales ORDER BY a",
		"SELECT a FROM (SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales) u ORDER BY a",
		"SELECT amount AS a FROM sales UNION SELECT amount AS b FROM sales",
	} {
		b := w.query(t, adminCtx(), q)
		if b.Schema.Len() != 1 || b.Schema.Fields[0].Name != "a" {
			t.Errorf("%s: schema %s, want (a DOUBLE)", q, b.Schema)
		}
		want := 12
		if strings.Contains(q, "UNION SELECT") {
			want = 6
		}
		if b.NumRows() != want {
			t.Errorf("%s: %d rows, want %d", q, b.NumRows(), want)
		}
	}
	for _, q := range []string{
		"SELECT a FROM (SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales) u ORDER BY a",
		"SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales ORDER BY a",
	} {
		sorted := w.query(t, adminCtx(), q)
		for i := 1; i < sorted.NumRows(); i++ {
			if sorted.Cols[0].Float64(i-1) > sorted.Cols[0].Float64(i) {
				t.Fatalf("%s: not sorted at row %d:\n%s", q, i, sorted.String())
			}
		}
	}
}

// A trailing ORDER BY / LIMIT sorts the whole union by the left branch's
// names; a right-branch name no longer resolves there.
func TestUnionTrailingOrderByUsesLeftNames(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT amount AS a FROM sales UNION ALL SELECT amount * 10 AS b FROM sales ORDER BY a DESC LIMIT 3")
	if b.NumRows() != 3 || b.Schema.Fields[0].Name != "a" {
		t.Fatalf("got %d rows, schema %s\n%s", b.NumRows(), b.Schema, b.String())
	}
	// The largest values come from the right branch (amount * 10), so the
	// sort and limit ran over both branches.
	all := w.query(t, adminCtx(), "SELECT amount * 10 AS a FROM sales ORDER BY a DESC LIMIT 3")
	for i := 0; i < 3; i++ {
		if b.Cols[0].Float64(i) != all.Cols[0].Float64(i) {
			t.Fatalf("row %d = %v, want %v\n%s", i, b.Cols[0].Float64(i), all.Cols[0].Float64(i), b.String())
		}
	}
	q, err := sql.ParseQuery("SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales ORDER BY b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyzer.New(w.cat, adminCtx()).Analyze(q); err == nil {
		t.Fatal("ORDER BY a right-branch name resolved; the union's columns are the left branch's")
	}
}

func TestCaseAndScalarFunctions(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), `
		SELECT seller, CASE WHEN amount >= 100 THEN 'big' ELSE 'small' END AS size
		FROM sales WHERE region = 'US' ORDER BY amount DESC`)
	if col(b, "size").StringAt(0) != "big" || col(b, "size").StringAt(2) != "small" {
		t.Errorf("case:\n%s", b.String())
	}
}

func TestSessionUDFThroughSandbox(t *testing.T) {
	w := newWorld(t)
	q, _ := sql.ParseQuery("SELECT seller, boost(amount) AS boosted FROM sales WHERE region = 'US' ORDER BY boosted")
	a := analyzer.New(w.cat, adminCtx())
	a.TempFuncs = map[string]analyzer.TempFunc{
		"boost": {
			Params:  []types.Field{{Name: "x", Kind: types.KindFloat64}},
			Returns: types.KindFloat64,
			Body:    "return x * 2.0",
			Owner:   admin,
		},
	}
	resolved, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	optimized := optimizer.Optimize(resolved, optimizer.DefaultOptions())
	qc := NewQueryContext(w.cat, adminCtx())
	b, err := w.engine.ExecuteToBatch(qc, optimized)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 3 || col(b, "boosted").Float64(0) != 100 {
		t.Errorf("udf result:\n%s", b.String())
	}
	// The work went through a sandbox.
	if w.engine.Dispatcher.Stats().ColdStarts == 0 {
		t.Error("UDF did not use the sandbox")
	}
}

func TestRowFilterEnforcedEndToEnd(t *testing.T) {
	w := newWorld(t)
	if err := w.cat.SetRowFilter(adminCtx(), []string{"sales"}, "region = 'US'", false); err != nil {
		t.Fatal(err)
	}
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"sales"}, alice)
	ctx := catalog.RequestContext{User: alice, Compute: catalog.ComputeStandard, SessionID: "sa"}
	b := w.query(t, ctx, "SELECT seller, region FROM sales ORDER BY seller")
	if b.NumRows() != 3 {
		t.Fatalf("row filter not applied: %d rows\n%s", b.NumRows(), b.String())
	}
	for i := 0; i < b.NumRows(); i++ {
		if col(b, "region").StringAt(i) != "US" {
			t.Fatalf("leaked row:\n%s", b.String())
		}
	}
}

func TestDynamicRowFilterCurrentUser(t *testing.T) {
	w := newWorld(t)
	// Sellers see only their own rows; admins see everything.
	filter := "seller = CURRENT_USER() OR IS_ACCOUNT_GROUP_MEMBER('managers')"
	if err := w.cat.SetRowFilter(adminCtx(), []string{"sales"}, filter, false); err != nil {
		t.Fatal(err)
	}
	w.cat.CreateGroup("managers", "boss@corp.com")
	for _, u := range []string{"ann", "ben", "boss@corp.com"} {
		w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"sales"}, u)
	}
	annCtx := catalog.RequestContext{User: "ann", Compute: catalog.ComputeStandard, SessionID: "sann"}
	b := w.query(t, annCtx, "SELECT seller FROM sales")
	if b.NumRows() != 2 {
		t.Fatalf("ann sees %d rows", b.NumRows())
	}
	bossCtx := catalog.RequestContext{User: "boss@corp.com", Compute: catalog.ComputeStandard, SessionID: "sboss"}
	b2 := w.query(t, bossCtx, "SELECT seller FROM sales")
	if b2.NumRows() != 6 {
		t.Fatalf("boss sees %d rows", b2.NumRows())
	}
}

func TestColumnMaskEnforcedEndToEnd(t *testing.T) {
	w := newWorld(t)
	mask := "CASE WHEN IS_ACCOUNT_GROUP_MEMBER('hr') THEN seller ELSE '***' END"
	if err := w.cat.SetColumnMask(adminCtx(), []string{"sales"}, "seller", mask, false); err != nil {
		t.Fatal(err)
	}
	w.cat.CreateGroup("hr", "hrlead@corp.com")
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"sales"}, alice)
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"sales"}, "hrlead@corp.com")

	aliceCtx := catalog.RequestContext{User: alice, Compute: catalog.ComputeStandard, SessionID: "sa"}
	b := w.query(t, aliceCtx, "SELECT seller FROM sales")
	for i := 0; i < b.NumRows(); i++ {
		if col(b, "seller").StringAt(i) != "***" {
			t.Fatalf("mask bypassed:\n%s", b.String())
		}
	}
	hrCtx := catalog.RequestContext{User: "hrlead@corp.com", Compute: catalog.ComputeStandard, SessionID: "sh"}
	b2 := w.query(t, hrCtx, "SELECT DISTINCT seller FROM sales ORDER BY seller")
	if b2.NumRows() != 4 || col(b2, "seller").StringAt(0) != "ann" {
		t.Errorf("hr should see raw values:\n%s", b2.String())
	}
}

func TestMaskedColumnFilterSeesMaskedValues(t *testing.T) {
	w := newWorld(t)
	w.cat.SetColumnMask(adminCtx(), []string{"sales"}, "seller", "'***'", false)
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"sales"}, alice)
	aliceCtx := catalog.RequestContext{User: alice, Compute: catalog.ComputeStandard, SessionID: "sa"}
	// Filtering on the true value must find nothing (the filter runs above
	// the mask) — otherwise predicates become an oracle on hidden data.
	b := w.query(t, aliceCtx, "SELECT amount FROM sales WHERE seller = 'ann'")
	if b.NumRows() != 0 {
		t.Fatalf("predicate oracle leak: %d rows", b.NumRows())
	}
	b2 := w.query(t, aliceCtx, "SELECT amount FROM sales WHERE seller = '***'")
	if b2.NumRows() != 6 {
		t.Fatalf("masked filter rows = %d", b2.NumRows())
	}
}

func TestViewEndToEnd(t *testing.T) {
	w := newWorld(t)
	vs := types.NewSchema(
		types.Field{Name: "seller", Kind: types.KindString},
		types.Field{Name: "amount", Kind: types.KindFloat64},
	)
	if err := w.cat.CreateView(adminCtx(), []string{"us_sales"},
		"SELECT seller, amount FROM sales WHERE region = 'US'", false, false, vs, ""); err != nil {
		t.Fatal(err)
	}
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"us_sales"}, alice)
	aliceCtx := catalog.RequestContext{User: alice, Compute: catalog.ComputeStandard, SessionID: "sa"}
	b := w.query(t, aliceCtx, "SELECT seller, amount FROM us_sales ORDER BY amount DESC")
	if b.NumRows() != 3 || col(b, "amount").Float64(0) != 100 {
		t.Errorf("view result:\n%s", b.String())
	}
	// Base table remains off limits.
	if _, err := w.tryQuery(aliceCtx, "SELECT * FROM sales"); err == nil {
		t.Error("base table access should be denied")
	}
}

func TestMaterializedViewEndToEnd(t *testing.T) {
	w := newWorld(t)
	vs := types.NewSchema(
		types.Field{Name: "region", Kind: types.KindString},
		types.Field{Name: "total", Kind: types.KindFloat64},
	)
	if err := w.cat.CreateView(adminCtx(), []string{"region_totals"},
		"SELECT region, SUM(amount) AS total FROM sales GROUP BY region", true, false, vs, ""); err != nil {
		t.Fatal(err)
	}
	// Refresh by executing the view body.
	data := w.query(t, adminCtx(), "SELECT region, SUM(amount) AS total FROM sales GROUP BY region")
	if err := w.cat.RefreshMaterializedView(adminCtx(), []string{"region_totals"}, []*types.Batch{data}); err != nil {
		t.Fatal(err)
	}
	b := w.query(t, adminCtx(), "SELECT * FROM region_totals ORDER BY total DESC")
	if b.NumRows() != 3 || col(b, "total").Float64(0) != 500 {
		t.Errorf("mv result:\n%s", b.String())
	}
}

func TestTimeTravelEndToEnd(t *testing.T) {
	w := newWorld(t)
	// Version 1 has 6 rows; append 1 more -> version 2.
	extra := types.NewBatchBuilder(types.NewSchema(
		types.Field{Name: "amount", Kind: types.KindFloat64},
		types.Field{Name: "date", Kind: types.KindDate},
		types.Field{Name: "seller", Kind: types.KindString},
		types.Field{Name: "region", Kind: types.KindString},
	), 1)
	d, _ := types.DateFromString("2024-12-03")
	extra.AppendRow([]types.Value{types.Float64(999), d, types.String("eve"), types.String("US")})
	if _, err := w.cat.AppendToTable(adminCtx(), []string{"sales"}, []*types.Batch{extra.Build()}); err != nil {
		t.Fatal(err)
	}
	now := w.query(t, adminCtx(), "SELECT COUNT(*) AS n FROM sales")
	if col(now, "n").Int64(0) != 7 {
		t.Fatalf("latest = %d", col(now, "n").Int64(0))
	}
	old := w.query(t, adminCtx(), "SELECT COUNT(*) AS n FROM sales VERSION AS OF 1")
	if col(old, "n").Int64(0) != 6 {
		t.Fatalf("v1 = %d", col(old, "n").Int64(0))
	}
}

func TestSubqueryAndCTE(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), `
		WITH us AS (SELECT seller, amount FROM sales WHERE region = 'US')
		SELECT seller, SUM(amount) AS total FROM us GROUP BY seller ORDER BY total DESC`)
	if b.NumRows() != 2 || col(b, "total").Float64(0) != 150 {
		t.Errorf("cte result:\n%s", b.String())
	}
	b2 := w.query(t, adminCtx(), "SELECT x FROM (SELECT amount AS x FROM sales WHERE amount > 200) big")
	if b2.NumRows() != 1 || col(b2, "x").Float64(0) != 300 {
		t.Errorf("subquery:\n%s", b2.String())
	}
}

func TestRemoteScanWithoutExecutorFails(t *testing.T) {
	w := newWorld(t)
	w.cat.SetRowFilter(adminCtx(), []string{"sales"}, "region = 'US'", false)
	w.cat.Grant(adminCtx(), catalog.PrivSelect, []string{"sales"}, alice)
	ctx := catalog.RequestContext{User: alice, Compute: catalog.ComputeDedicated, SessionID: "sa"}
	_, err := w.tryQuery(ctx, "SELECT amount FROM sales")
	if err == nil || !strings.Contains(err.Error(), "remote") {
		t.Fatalf("err = %v", err)
	}
}

func TestValuesQuery(t *testing.T) {
	w := newWorld(t)
	b := w.query(t, adminCtx(), "SELECT col1 + 1 AS n FROM (VALUES (1), (2), (3)) v ORDER BY n DESC")
	if b.NumRows() != 3 || col(b, "n").Int64(0) != 4 {
		t.Errorf("values:\n%s", b.String())
	}
}
