package sql

import (
	"strings"
	"testing"

	"lakeguard/internal/plan"
)

// nestTooDeep is one level past plan.MaxNestingDepth for each recursive rule
// of the grammar, as a full statement.
func nestTooDeep() map[string]string {
	n := plan.MaxNestingDepth
	return map[string]string{
		"parentheses": "SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"NOT":         "SELECT " + strings.Repeat("NOT ", n) + "TRUE",
		"unary minus": "SELECT " + strings.Repeat("- ", n) + "1",
		"CASE":        "SELECT " + strings.Repeat("CASE WHEN TRUE THEN ", n) + "1" + strings.Repeat(" END", n),
		"function":    "SELECT " + strings.Repeat("abs(", n) + "1" + strings.Repeat(")", n),
		"subquery":    strings.Repeat("SELECT * FROM (", n) + "SELECT 1" + strings.Repeat(")", n),
		"EXPLAIN":     strings.Repeat("EXPLAIN ", n) + "SELECT 1",
	}
}

// Every recursive rule stops at plan.MaxNestingDepth with a parse error, and
// a statement well inside the bound still parses.
func TestNestingDepthBound(t *testing.T) {
	for name, src := range nestTooDeep() {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
			t.Errorf("%s one level past the bound: err = %v, want a nesting error", name, err)
		}
	}
	n := plan.MaxNestingDepth - 8
	for _, src := range []string{
		"SELECT " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n),
		"SELECT " + strings.Repeat("NOT ", n) + "TRUE",
		strings.Repeat("SELECT * FROM (", n/2) + "SELECT 1" + strings.Repeat(")", n/2),
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%.40s… inside the bound: %v", src, err)
		}
	}
	deep := strings.Repeat("NOT ", plan.MaxNestingDepth+1) + "a"
	if _, err := ParseExpr(deep); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
		t.Errorf("ParseExpr past the bound: err = %v, want a nesting error", err)
	}
}

// FuzzParse feeds the same text to Parse and ParseExpr, the entry points for
// client statements and for stored policy and view text. Neither may panic or
// recurse without bound, and a parsed query must render.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT CASE @ END",
		"SELECT NOT @",
		"SELECT seller FROM sales WHERE NOT NOT @",
		"SELECT a, b FROM t WHERE a IN (1, 2) AND b LIKE 'x%' ORDER BY a DESC LIMIT 3",
		"WITH c AS (SELECT 1 AS x) SELECT x FROM c UNION ALL SELECT 2",
		"region = 'US' OR IS_ACCOUNT_GROUP_MEMBER('admins')",
		"CASE WHEN CAST(seller AS BIGINT) > 0 THEN '***' ELSE seller END",
		"MERGE INTO t USING s ON t.id = s.id WHEN MATCHED THEN UPDATE SET v = s.v",
	} {
		f.Add(seed)
	}
	for _, seed := range nestTooDeep() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if st, err := Parse(src); err == nil && st.Query != nil {
			_ = plan.Explain(st.Query)
		}
		_, _ = ParseExpr(src)
	})
}
