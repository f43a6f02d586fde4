package core

import (
	"net/http/httptest"
	"strings"
	"testing"

	"lakeguard/internal/catalog"
	"lakeguard/internal/connect"
	"lakeguard/internal/plan"
	"lakeguard/internal/storage"
	"lakeguard/internal/types"
)

const (
	admin = "admin@corp.com"
	alice = "alice@corp.com"
	bob   = "bob@corp.com"
)

var tokens = connect.TokenMap{
	"tok-admin": admin,
	"tok-alice": alice,
	"tok-bob":   bob,
}

// env is a full deployment: catalog + standard cluster + Connect endpoint.
type env struct {
	cat     *catalog.Catalog
	server  *Server
	service *connect.Service
	http    *httptest.Server
}

func newEnv(t *testing.T, cfg Config) *env {
	t.Helper()
	if cfg.Catalog == nil {
		cfg.Catalog = catalog.New(storage.NewStore(), nil)
		cfg.Catalog.AddAdmin(admin)
	}
	if cfg.Compute == "" {
		cfg.Compute = catalog.ComputeStandard
	}
	server := NewServer(cfg)
	service := connect.NewService(server, tokens)
	ts := httptest.NewServer(service.Handler())
	t.Cleanup(ts.Close)
	return &env{cat: cfg.Catalog, server: server, service: service, http: ts}
}

func (e *env) client(token string) *connect.Client {
	return connect.Dial(e.http.URL, token)
}

func mustExec(t *testing.T, c *connect.Client, sql string) *types.Batch {
	t.Helper()
	b, err := c.ExecSQL(sql)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", sql, err)
	}
	return b
}

func seedSales(t *testing.T, c *connect.Client) {
	t.Helper()
	mustExec(t, c, "CREATE TABLE sales (amount DOUBLE, date DATE, seller STRING, region STRING)")
	mustExec(t, c, `INSERT INTO sales VALUES
		(100, CAST('2024-12-01' AS DATE), 'ann', 'US'),
		(200, CAST('2024-12-01' AS DATE), 'ben', 'EU'),
		(50,  CAST('2024-12-02' AS DATE), 'ann', 'US'),
		(75,  CAST('2024-12-01' AS DATE), 'cat', 'US'),
		(300, CAST('2024-12-02' AS DATE), 'ben', 'EU'),
		(25,  CAST('2024-12-01' AS DATE), 'dan', 'APAC')`)
}

func TestEndToEndSQLOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	b, err := c.Sql("SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY total DESC").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 3 || b.Cols[0].StringAt(0) != "EU" || b.Cols[1].Float64(0) != 500 {
		t.Fatalf("result:\n%s", b.String())
	}
}

// UNION branches may name their columns differently; the command path and
// EXPLAIN ANALYZE concatenate the result under the left branch's names,
// with and without a sort above the union.
func TestUnionAllBranchNamesDifferOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	for _, q := range []string{
		"SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales",
		"SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales ORDER BY a",
		"SELECT amount AS a FROM sales UNION ALL (SELECT amount AS b FROM sales ORDER BY b)",
		"SELECT a FROM (SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales) u ORDER BY a",
	} {
		b, err := c.Sql(q).Collect()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if b.NumRows() != 12 || b.Schema.Len() != 1 || b.Schema.Fields[0].Name != "a" {
			t.Fatalf("%s: %d rows, schema %s\n%s", q, b.NumRows(), b.Schema, b.String())
		}
		if _, rows, err := c.SqlExplainAnalyze(q); err != nil || rows != 12 {
			t.Fatalf("EXPLAIN ANALYZE %s: %d rows, %v", q, rows, err)
		}
	}
}

// A trailing ORDER BY after a union sorts the whole union by the left
// branch's names, over the wire as in process.
func TestUnionTrailingOrderByOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	b, err := c.Sql("SELECT amount AS a FROM sales UNION ALL SELECT amount * 10 AS b FROM sales ORDER BY a DESC LIMIT 3").Collect()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Sql("SELECT amount * 10 AS a FROM sales ORDER BY a DESC LIMIT 3").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema.Fields[0].Name != "a" || canonical(b) != canonical(want) {
		t.Fatalf("union top 3:\n%s\nwant the right branch's top 3:\n%s", b.String(), want.String())
	}
	if _, err := c.Sql("SELECT amount AS a FROM sales UNION ALL SELECT amount AS b FROM sales ORDER BY b").Collect(); err == nil {
		t.Fatal("ORDER BY a right-branch name resolved over the wire")
	}
}

func TestDataFrameAPIOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)

	df := c.Table("sales").
		Where(connect.Col("region").Eq(connect.Lit("US"))).
		GroupBy("seller").
		Agg(connect.Sum(connect.Col("amount")).As("total")).
		OrderBy(connect.Col("total").Desc()).
		Limit(10)
	b, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 2 || b.Cols[0].StringAt(0) != "ann" || b.Cols[1].Float64(0) != 150 {
		t.Fatalf("dataframe result:\n%s", b.String())
	}

	n, err := c.Table("sales").Count()
	if err != nil || n != 6 {
		t.Fatalf("count = %d, %v", n, err)
	}

	schema, err := c.Table("sales").Select("amount", "seller").Schema()
	if err != nil || schema.Len() != 2 || schema.Fields[0].Kind != types.KindFloat64 {
		t.Fatalf("schema = %v, %v", schema, err)
	}
}

func TestJoinAndLocalDataOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	quotas := c.CreateDataFrame(
		types.NewSchema(
			types.Field{Name: "seller", Kind: types.KindString},
			types.Field{Name: "quota", Kind: types.KindFloat64},
		),
		[][]types.Value{
			{types.String("ann"), types.Float64(120)},
			{types.String("ben"), types.Float64(400)},
		},
	).Alias("q")
	got, err := c.Table("sales").Alias("s").
		Join(quotas, connect.Col("s.seller").Eq(connect.Col("q.seller")), "inner").
		Select("s.seller", "q.quota").Distinct().
		OrderBy(connect.Col("quota").Asc()).
		Collect()
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 2 || got.Cols[1].Float64(0) != 120 {
		t.Fatalf("join result:\n%s", got.String())
	}
}

func TestSessionUDFOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	err := c.RegisterFunction("to_eur",
		[]types.Field{{Name: "usd", Kind: types.KindFloat64}},
		types.KindFloat64, "return usd * 0.9")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Sql("SELECT to_eur(amount) AS eur FROM sales WHERE seller = 'ann' ORDER BY eur").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 2 || b.Cols[0].Float64(0) != 45 {
		t.Fatalf("udf result:\n%s", b.String())
	}
	// UDF ran through the sandbox layer.
	first := e.server.Dispatcher().Stats()
	if first.ColdStarts == 0 {
		t.Error("UDF bypassed the sandbox")
	}
	// Later UDF queries of the session reuse the warm sandbox: the cold
	// start (§5) is paid once per session, not once per query.
	for i := 0; i < 2; i++ {
		if _, err := c.Sql("SELECT to_eur(amount) AS eur FROM sales WHERE seller = 'ann'").Collect(); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.server.Dispatcher().Stats(); st.ColdStarts != first.ColdStarts || st.Reuses < first.Reuses+2 {
		t.Errorf("warm queries provisioned again: stats %+v after the first query, %+v after two more", first, st)
	}
	// Another session cannot see the function.
	c2 := e.client("tok-admin")
	if _, err := c2.Sql("SELECT to_eur(amount) FROM sales").Collect(); err == nil {
		t.Error("session UDF leaked across sessions")
	}
}

func TestTempViewIsolationBetweenUsers(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	aliceC := e.client("tok-alice")
	if err := aliceC.Table("sales").Where(connect.Col("region").Eq(connect.Lit("US"))).CreateTempView("my_us"); err != nil {
		t.Fatal(err)
	}
	n, err := aliceC.Table("my_us").Count()
	if err != nil || n != 3 {
		t.Fatalf("alice temp view count = %d, %v", n, err)
	}
	// Bob cannot see alice's temp view.
	bobC := e.client("tok-bob")
	if _, err := bobC.Table("my_us").Collect(); err == nil {
		t.Error("temp view leaked across users")
	}
}

func TestRowFilterAndMaskOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'' OR IS_ACCOUNT_GROUP_MEMBER(''execs'')'")
	mustExec(t, adminC, "ALTER TABLE sales ALTER COLUMN seller SET MASK 'CASE WHEN IS_ACCOUNT_GROUP_MEMBER(''hr'') THEN seller ELSE ''***'' END'")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	aliceC := e.client("tok-alice")
	b, err := aliceC.Table("sales").Select("seller", "region").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 3 {
		t.Fatalf("row filter: %d rows\n%s", b.NumRows(), b.String())
	}
	for i := 0; i < b.NumRows(); i++ {
		if b.Cols[0].StringAt(i) != "***" {
			t.Fatalf("mask bypassed over the wire:\n%s", b.String())
		}
		if b.Cols[1].StringAt(i) != "US" {
			t.Fatalf("row filter bypassed:\n%s", b.String())
		}
	}
}

func TestExplainRedactionOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''SECRETLAND'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")
	aliceC := e.client("tok-alice")
	explain, err := aliceC.Table("sales").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "SECRETLAND") {
		t.Errorf("policy literal leaked in EXPLAIN:\n%s", explain)
	}
	if !strings.Contains(explain, "SecureView") || !strings.Contains(explain, "<redacted>") {
		t.Errorf("explain missing redaction marker:\n%s", explain)
	}
}

func TestViewsAndMaterializedViewsOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "CREATE VIEW us_sales AS SELECT seller, amount FROM sales WHERE region = 'US'")
	mustExec(t, adminC, "GRANT SELECT ON us_sales TO 'alice@corp.com'")
	aliceC := e.client("tok-alice")
	n, err := aliceC.Table("us_sales").Count()
	if err != nil || n != 3 {
		t.Fatalf("view count = %d, %v", n, err)
	}
	// Base table still denied.
	if _, err := aliceC.Table("sales").Collect(); err == nil {
		t.Error("base table should be denied")
	}

	mustExec(t, adminC, "CREATE MATERIALIZED VIEW region_totals AS SELECT region, SUM(amount) AS total FROM sales GROUP BY region")
	// Unrefreshed MV fails.
	if _, err := adminC.Table("region_totals").Collect(); err == nil {
		t.Error("unrefreshed MV should fail")
	}
	mustExec(t, adminC, "REFRESH MATERIALIZED VIEW region_totals")
	b, err := adminC.Sql("SELECT * FROM region_totals ORDER BY total DESC").Collect()
	if err != nil || b.NumRows() != 3 || b.Cols[1].Float64(0) != 500 {
		t.Fatalf("mv result: %v\n%s", err, b)
	}
}

func TestCatalogUDFOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "CREATE FUNCTION redact_half(s STRING) RETURNS STRING AS 'return substr(s, 0, 1) + ''***'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")
	aliceC := e.client("tok-alice")
	// EXECUTE required.
	if _, err := aliceC.Sql("SELECT redact_half(seller) FROM sales").Collect(); err == nil {
		t.Fatal("missing EXECUTE should fail")
	}
	mustExec(t, adminC, "GRANT EXECUTE ON redact_half TO 'alice@corp.com'")
	b, err := aliceC.Sql("SELECT redact_half(seller) AS r FROM sales WHERE seller = 'ann' LIMIT 1").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.Cols[0].StringAt(0) != "a***" {
		t.Fatalf("cataloged udf result: %q", b.Cols[0].StringAt(0))
	}
}

func TestDedicatedClusterSingleIdentity(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	e := newEnv(t, Config{Name: "ded", Compute: catalog.ComputeDedicated, Catalog: cat})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	// First identity pins the cluster.
	aliceDenied := e.client("tok-alice")
	if _, err := aliceDenied.Sql("SELECT 1").Collect(); err == nil || !strings.Contains(err.Error(), "dedicated") {
		t.Fatalf("second identity should be rejected: %v", err)
	}
}

func TestDedicatedGroupClusterDownScoping(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	cat.CreateGroup("ml_team", alice, bob)
	e := newEnv(t, Config{Name: "dedg", Compute: catalog.ComputeDedicated, Catalog: cat, GroupScope: "ml_team"})

	// Seed via a separate standard cluster (admin is not in the group).
	std := newEnv(t, Config{Name: "std", Catalog: cat})
	adminC := std.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "CREATE TABLE secrets (x STRING)")
	// Alice personally has access to secrets, but the group does not.
	mustExec(t, adminC, "GRANT SELECT ON secrets TO 'alice@corp.com'")
	mustExec(t, adminC, "GRANT SELECT ON sales TO ml_team")

	aliceC := e.client("tok-alice")
	// Group members share the dedicated cluster.
	if _, err := aliceC.Table("sales").Collect(); err != nil {
		t.Fatalf("group member query: %v", err)
	}
	bobC := e.client("tok-bob")
	if _, err := bobC.Table("sales").Collect(); err != nil {
		t.Fatalf("second group member: %v", err)
	}
	// Down-scoping: alice's personal grant on secrets is inert here.
	if _, err := aliceC.Table("secrets").Collect(); err == nil {
		t.Error("down-scoping failed: personal grant used on group cluster")
	}
	// Non-member rejected.
	cat2 := e.client("tok-admin")
	if _, err := cat2.Sql("SELECT 1").Collect(); err == nil || !strings.Contains(err.Error(), "member") {
		t.Fatalf("non-member: %v", err)
	}
}

func TestCurrentUserIdentityRetainedOnGroupCluster(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	cat.CreateGroup("ml_team", alice, bob)
	e := newEnv(t, Config{Name: "dedg", Compute: catalog.ComputeDedicated, Catalog: cat, GroupScope: "ml_team"})
	aliceC := e.client("tok-alice")
	b, err := aliceC.Sql("SELECT CURRENT_USER() AS u").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.Cols[0].StringAt(0) != alice {
		t.Errorf("CURRENT_USER = %q (identity lost under down-scoping)", b.Cols[0].StringAt(0))
	}
}

func TestAuditAttributionPerUser(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")
	aliceC := e.client("tok-alice")
	if _, err := aliceC.Table("sales").Collect(); err != nil {
		t.Fatal(err)
	}
	bobC := e.client("tok-bob")
	_, _ = bobC.Table("sales").Collect() // denied

	events := e.cat.Audit().ByUser(alice)
	if len(events) == 0 {
		t.Fatal("no audit events for alice")
	}
	denied := false
	for _, ev := range e.cat.Audit().Denials() {
		if ev.User == bob {
			denied = true
		}
	}
	if !denied {
		t.Error("bob's denial not audited")
	}
}

func TestSessionMigration(t *testing.T) {
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)
	a := newEnv(t, Config{Name: "a", Catalog: cat})
	bsrv := NewServer(Config{Name: "b", Catalog: cat})
	adminC := a.client("tok-admin")
	seedSales(t, adminC)
	if err := adminC.Table("sales").CreateTempView("tv"); err != nil {
		t.Fatal(err)
	}

	// Migrate the session from cluster a to cluster b.
	sessionID := admin + "/" + adminC.SessionID()
	snap, ok := a.server.ExportSession(sessionID)
	if !ok {
		t.Fatal("session not found for export")
	}
	if err := bsrv.ImportSession(sessionID, snap); err != nil {
		t.Fatal(err)
	}
	// The temp view works on the new backend.
	service := connect.NewService(bsrv, tokens)
	ts := httptest.NewServer(service.Handler())
	defer ts.Close()
	migrated := connect.DialSession(ts.URL, "tok-admin", adminC.SessionID())
	n, err := migrated.Table("tv").Count()
	if err != nil || n != 6 {
		t.Fatalf("migrated session count = %d, %v", n, err)
	}
}

func TestInsertFromDataFrame(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	c := e.client("tok-admin")
	seedSales(t, c)
	mustExec(t, c, "CREATE TABLE us_archive (amount DOUBLE, seller STRING)")
	err := c.Table("sales").
		Where(connect.Col("region").Eq(connect.Lit("US"))).
		Select("amount", "seller").
		InsertInto("us_archive")
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.Table("us_archive").Count()
	if err != nil || n != 3 {
		t.Fatalf("archive count = %d, %v", n, err)
	}
}

func TestWrongTokenAndBadSQL(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	bad := e.client("tok-nope")
	if _, err := bad.Sql("SELECT 1").Collect(); err == nil {
		t.Error("invalid token accepted")
	}
	c := e.client("tok-admin")
	if _, err := c.ExecSQL("SELEC x FORM y"); err == nil {
		t.Error("bad SQL accepted")
	}
}

// --- eFGAC: dedicated -> serverless ---

// newEFGACWorld wires a dedicated cluster whose remote executor submits to a
// serverless cluster over the Connect protocol (paper Fig. 8 / §3.4).
func newEFGACWorld(t *testing.T, spillThreshold int) (*env, *env, *EFGACClient) {
	t.Helper()
	cat := catalog.New(storage.NewStore(), nil)
	cat.AddAdmin(admin)

	serverless := newEnv(t, Config{
		Name: "serverless", Compute: catalog.ComputeServerless, Catalog: cat,
		SpillThreshold: spillThreshold,
	})
	tokenFor := map[string]string{admin: "tok-admin", alice: "tok-alice", bob: "tok-bob"}
	efgac := &EFGACClient{
		Dial: func(user, sessionID string) *connect.Client {
			return connect.Dial(serverless.http.URL, tokenFor[user])
		},
		Cat:   cat,
		Store: cat.Store(),
	}
	dedicated := newEnv(t, Config{
		Name: "dedicated", Compute: catalog.ComputeDedicated, Catalog: cat, Remote: efgac,
	})
	return dedicated, serverless, efgac
}

func TestEFGACEndToEnd(t *testing.T) {
	dedicated, _, efgac := newEFGACWorld(t, 0)
	// Seed via a standard cluster.
	std := newEnv(t, Config{Name: "std", Catalog: dedicated.cat})
	adminC := std.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	aliceC := dedicated.client("tok-alice")
	b, err := aliceC.Sql("SELECT amount, date, seller FROM sales WHERE date = '2024-12-01'").Collect()
	if err != nil {
		t.Fatal(err)
	}
	// US rows on 2024-12-01: ann(100), cat(75).
	if b.NumRows() != 2 {
		t.Fatalf("eFGAC rows = %d\n%s", b.NumRows(), b.String())
	}
	// A small result comes back inline with the remote query (§3.4); the
	// spill mode is TestEFGACSpillMode.
	rq, spilled := efgac.Stats()
	if rq == 0 {
		t.Error("no remote query recorded")
	}
	if spilled != 0 {
		t.Errorf("%d spilled reads for an inline-size result", spilled)
	}
	// The dedicated plan shows a RemoteScan and no policy internals.
	explain, err := aliceC.Sql("SELECT amount, date, seller FROM sales WHERE date = '2024-12-01'").Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "RemoteScan") {
		t.Errorf("expected RemoteScan in plan:\n%s", explain)
	}
	if strings.Contains(explain, "US") {
		t.Errorf("policy literal leaked to dedicated plan:\n%s", explain)
	}
	// Pushdowns made it into the remote scan.
	if !strings.Contains(explain, "filters=") || !strings.Contains(explain, "project=") {
		t.Errorf("pushdowns missing:\n%s", explain)
	}
}

func TestEFGACEquivalenceWithStandard(t *testing.T) {
	dedicated, _, _ := newEFGACWorld(t, 0)
	std := newEnv(t, Config{Name: "std", Catalog: dedicated.cat})
	adminC := std.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'' OR seller = CURRENT_USER()'")
	mustExec(t, adminC, "ALTER TABLE sales ALTER COLUMN seller SET MASK 'upper(seller)'")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	queries := []string{
		"SELECT seller, amount FROM sales ORDER BY amount",
		"SELECT region, SUM(amount) AS t, COUNT(*) AS n FROM sales GROUP BY region ORDER BY t",
		"SELECT COUNT(*) AS n FROM sales WHERE amount > 60",
		"SELECT seller FROM sales WHERE date = '2024-12-01' ORDER BY seller LIMIT 2",
	}
	for _, q := range queries {
		viaStd, err := std.client("tok-alice").Sql(q).Collect()
		if err != nil {
			t.Fatalf("standard %q: %v", q, err)
		}
		viaDed, err := dedicated.client("tok-alice").Sql(q).Collect()
		if err != nil {
			t.Fatalf("dedicated %q: %v", q, err)
		}
		if viaStd.String() != viaDed.String() {
			t.Errorf("eFGAC divergence for %q:\nstandard:\n%s\ndedicated:\n%s", q, viaStd.String(), viaDed.String())
		}
	}
}

func TestEFGACSpillMode(t *testing.T) {
	dedicated, _, efgac := newEFGACWorld(t, 64) // tiny threshold forces spill
	std := newEnv(t, Config{Name: "std", Catalog: dedicated.cat})
	adminC := std.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	aliceC := dedicated.client("tok-alice")
	b, err := aliceC.Sql("SELECT seller, amount FROM sales ORDER BY amount").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 3 {
		t.Fatalf("spilled result rows = %d\n%s", b.NumRows(), b.String())
	}
	if _, spilled := efgac.Stats(); spilled == 0 {
		t.Error("spill path not exercised")
	}
}

func TestEFGACPartialAggregatePushdown(t *testing.T) {
	dedicated, _, _ := newEFGACWorld(t, 0)
	std := newEnv(t, Config{Name: "std", Catalog: dedicated.cat})
	adminC := std.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region <> ''APAC'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	aliceC := dedicated.client("tok-alice")
	q := "SELECT region, SUM(amount) AS total FROM sales GROUP BY region ORDER BY total DESC"
	explain, err := aliceC.Sql(q).Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "partialAgg=") {
		t.Errorf("partial aggregate not pushed:\n%s", explain)
	}
	b, err := aliceC.Sql(q).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 2 || b.Cols[1].Float64(0) != 500 {
		t.Fatalf("partial agg result:\n%s", b.String())
	}
}

func TestRemoteScanSQLRendering(t *testing.T) {
	rs := &plan.RemoteScan{
		Relation:         "main.default.sales",
		PushedProjection: []string{"amount", "seller"},
		PushedFilters:    []plan.Expr{plan.Eq(plan.Col("region"), plan.Lit(types.String("US")))},
		PushedLimit:      5,
	}
	got := RenderRemoteSQL(rs)
	want := "SELECT amount, seller FROM main.default.sales WHERE (region = 'US') LIMIT 5"
	if got != want {
		t.Errorf("rendered = %q, want %q", got, want)
	}
	agg := &plan.RemoteScan{
		Relation: "t",
		PushedAggregate: &plan.RemoteAggregate{
			GroupBy: []string{"region"},
			Aggs:    []string{"SUM(amount) AS __partial0"},
		},
		PushedLimit: -1,
	}
	got2 := RenderRemoteSQL(agg)
	want2 := "SELECT region, SUM(amount) AS __partial0 FROM t GROUP BY region"
	if got2 != want2 {
		t.Errorf("rendered = %q, want %q", got2, want2)
	}
	bare := &plan.RemoteScan{Relation: "t", PushedLimit: -1}
	if RenderRemoteSQL(bare) != "SELECT * FROM t" {
		t.Errorf("bare = %q", RenderRemoteSQL(bare))
	}
}

// A bare NULL literal has the NULL type; its column carries only a bitmap
// on the wire and must reach the client.
func TestSelectNullOverWire(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	b, err := e.client("tok-admin").Sql("SELECT NULL AS x, 1 AS y").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 1 || b.Cols[0].Kind() != types.KindNull || !b.Cols[0].IsNull(0) || b.Cols[1].Int64(0) != 1 {
		t.Fatalf("result:\n%s", b.String())
	}
}
