package core

import (
	"regexp"
	"strings"
	"testing"

	"lakeguard/internal/connect"
	"lakeguard/internal/plan"
)

// One malformed statement fails alone: alice, with no grants, sends
// statements whose lexer error follows a token the parser matched (each
// once overflowed the parser's stack and ended the whole process) and
// statements nested far past plan.MaxNestingDepth, in SQL text and as a
// Connect plan. Each gets a parse or decode error, and bob's session on the
// same server then answers a governed query. The plan nests twice the bound,
// not 10,000 levels like the SQL, because the client's encoder copies each
// submessage into its parent: 10,000 Filters take seconds to encode, and far
// longer under the race detector.
func TestMalformedStatementLeavesServerUp(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'bob@corp.com'")

	aliceC := e.client("tok-alice")
	const depth = 10_000
	for _, c := range []struct{ q, want string }{
		{"SELECT CASE @ END", "unexpected character '@'"},
		{"SELECT NOT @", "unexpected character '@'"},
		{"SELECT seller FROM sales WHERE NOT NOT @", "unexpected character '@'"},
		{"SELECT " + strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth), "sql: statement nested deeper than"},
		{"SELECT " + strings.Repeat("NOT ", depth) + "TRUE", "sql: statement nested deeper than"},
	} {
		if _, err := aliceC.ExecSQL(c.q); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%.60s: err = %v, want a parse error", c.q, err)
		}
	}
	df := aliceC.Table("sales")
	for i := 0; i < 2*plan.MaxNestingDepth; i++ {
		df = df.Filter(connect.Col("amount").Gt(connect.Lit(0)))
	}
	if _, err := df.Collect(); err == nil || !strings.Contains(err.Error(), "proto: plan nested deeper than") {
		t.Fatalf("%d nested Filters: err = %v, want a decode error", 2*plan.MaxNestingDepth, err)
	}

	b, err := e.client("tok-bob").Sql("SELECT seller, region FROM sales").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 3 {
		t.Fatalf("bob's governed query returned %d rows, want the 3 US rows:\n%s", b.NumRows(), b.String())
	}
	for i := 0; i < b.NumRows(); i++ {
		if b.Cols[1].StringAt(i) != "US" {
			t.Fatalf("row filter bypassed:\n%s", b.String())
		}
	}
}

// A cast that fails on a governed value names the two kinds and not the
// value: a mask's operand is the raw value it hides, and a row filter's is a
// value from a row the caller may not see.
func TestCastErrorHidesOperand(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")
	mustExec(t, adminC, "ALTER TABLE sales ALTER COLUMN seller SET MASK 'CASE WHEN CAST(seller AS BIGINT) > 0 THEN ''***'' ELSE ''***'' END'")
	aliceC := e.client("tok-alice")
	probe := func(hidden string) {
		t.Helper()
		_, err := aliceC.Sql("SELECT seller, region FROM sales").Collect()
		if err == nil {
			t.Fatal("a failing policy returned rows")
		}
		if !strings.Contains(err.Error(), "cannot cast STRING to BIGINT") || regexp.MustCompile(`\b`+hidden+`\b`).MatchString(err.Error()) {
			t.Fatalf("err = %v, want a cast error without %q", err, hidden)
		}
	}
	probe("ann")

	mustExec(t, adminC, "ALTER TABLE sales ALTER COLUMN seller DROP MASK")
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'' OR CAST(region AS BIGINT) > 0'")
	probe("EU")
}
