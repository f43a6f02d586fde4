package core

import (
	"strings"
	"testing"
)

// One malformed statement fails alone: alice, with no grants, sends
// statements whose lexer error follows a token the parser matched (each
// once overflowed the parser's stack and ended the whole process), gets a
// parse error for each, and bob's session on the same server then answers
// a governed query.
func TestMalformedStatementLeavesServerUp(t *testing.T) {
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'bob@corp.com'")

	aliceC := e.client("tok-alice")
	for _, q := range []string{
		"SELECT CASE @ END",
		"SELECT NOT @",
		"SELECT seller FROM sales WHERE NOT NOT @",
	} {
		_, err := aliceC.ExecSQL(q)
		if err == nil || !strings.Contains(err.Error(), "unexpected character '@'") {
			t.Fatalf("%s: err = %v, want a parse error", q, err)
		}
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
