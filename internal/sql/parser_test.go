package sql

import (
	"strings"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

func mustParse(t *testing.T, src string) *Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func mustQuery(t *testing.T, src string) plan.Node {
	t.Helper()
	st := mustParse(t, src)
	if st.Query == nil {
		t.Fatalf("Parse(%q): expected query", src)
	}
	return st.Query
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a, 'it''s' FROM t -- comment\nWHERE x >= 1.5e3 /* block */ AND `q id` <> 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, "|")
	for _, want := range []string{"SELECT", "it's", ">=", "1.5e3", "q id", "<>"} {
		if !strings.Contains(joined, want) {
			t.Errorf("tokens missing %q: %s", want, joined)
		}
	}
	if kinds[len(kinds)-1] != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexerErrors(t *testing.T) {
	if _, err := Tokenize("'unterminated"); err == nil {
		t.Error("expected unterminated string error")
	}
	if _, err := Tokenize("a $ b"); err == nil {
		t.Error("expected bad character error")
	}
}

func TestParseSimpleSelect(t *testing.T) {
	q := mustQuery(t, "SELECT amount, date, seller FROM sales WHERE date = '2024-12-01'")
	proj, ok := q.(*plan.Project)
	if !ok {
		t.Fatalf("root is %T, want Project", q)
	}
	if len(proj.Exprs) != 3 {
		t.Fatalf("projection arity %d", len(proj.Exprs))
	}
	f, ok := proj.Child.(*plan.Filter)
	if !ok {
		t.Fatalf("child is %T, want Filter", proj.Child)
	}
	rel, ok := f.Child.(*plan.UnresolvedRelation)
	if !ok || rel.Name() != "sales" {
		t.Fatalf("leaf = %v", f.Child)
	}
}

func TestParseQualifiedNamesAndStar(t *testing.T) {
	q := mustQuery(t, "SELECT t.*, main.schema1.tbl.c FROM main.schema1.tbl t")
	proj := q.(*plan.Project)
	star, ok := proj.Exprs[0].(*plan.Star)
	if !ok || star.Qualifier != "t" {
		t.Errorf("first item = %v", proj.Exprs[0])
	}
	ref, ok := proj.Exprs[1].(*plan.ColumnRef)
	if !ok || ref.Qualifier != "main.schema1.tbl" || ref.Name != "c" {
		t.Errorf("second item = %v", proj.Exprs[1])
	}
	alias, ok := proj.Child.(*plan.SubqueryAlias)
	if !ok || alias.Name != "t" {
		t.Fatalf("from = %v", proj.Child)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	e, err := ParseExpr("1 + 2 * 3 = 7 AND NOT a OR b")
	if err != nil {
		t.Fatal(err)
	}
	// ((1 + (2*3)) = 7 AND NOT a) OR b
	want := "((((1 + (2 * 3)) = 7) AND (NOT a)) OR b)"
	if got := e.String(); got != want {
		t.Errorf("precedence: got %s want %s", got, want)
	}
}

func TestParseExprForms(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a IS NULL", "(a IS NULL)"},
		{"a IS NOT NULL", "(a IS NOT NULL)"},
		{"a IN (1, 2, 3)", "(a IN (1, 2, 3))"},
		{"a NOT IN (1)", "(a NOT IN (1))"},
		{"s LIKE 'x%'", "(s LIKE 'x%')"},
		{"s NOT LIKE 'x%'", "(s NOT LIKE 'x%')"},
		{"a BETWEEN 1 AND 10", "((a >= 1) AND (a <= 10))"},
		{"a NOT BETWEEN 1 AND 10", "(NOT ((a >= 1) AND (a <= 10)))"},
		{"CAST(a AS STRING)", "CAST(a AS STRING)"},
		{"CASE WHEN a THEN 1 ELSE 0 END", "CASE WHEN a THEN 1 ELSE 0 END"},
		{"CASE x WHEN 1 THEN 'a' END", "CASE WHEN (x = 1) THEN 'a' END"},
		{"CURRENT_USER()", "CURRENT_USER()"},
		{"IS_ACCOUNT_GROUP_MEMBER('hr')", "IS_ACCOUNT_GROUP_MEMBER('hr')"},
		{"upper(s) || '!'", "(UPPER(s) || '!')"},
		{"-5", "-5"},
		{"-x", "(-x)"},
		{"a % 3", "(a % 3)"},
		{"DATE '2024-12-01'", "DATE '2024-12-01'"},
		{"TRUE AND FALSE", "(true AND false)"},
		{"count(DISTINCT a)", "COUNT(DISTINCT a)"},
	}
	for _, c := range cases {
		e, err := ParseExpr(c.in)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.in, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("ParseExpr(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	bad := []string{
		"a +", "CAST(a AS NOPE)", "a NOT 5", "CASE END",
		"IS_ACCOUNT_GROUP_MEMBER(x)", "CURRENT_USER(1)", "sum(*)",
	}
	for _, src := range bad {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q): expected error", src)
		}
	}
}

func TestParseGroupByHaving(t *testing.T) {
	q := mustQuery(t, "SELECT seller, SUM(amount) AS total FROM sales GROUP BY seller HAVING SUM(amount) > 100 ORDER BY total DESC LIMIT 5")
	lim, ok := q.(*plan.Limit)
	if !ok || lim.N != 5 {
		t.Fatalf("root = %T", q)
	}
	sort, ok := lim.Child.(*plan.Sort)
	if !ok || !sort.Orders[0].Desc {
		t.Fatalf("sort = %v", lim.Child)
	}
	having, ok := sort.Child.(*plan.Filter)
	if !ok {
		t.Fatalf("having = %T", sort.Child)
	}
	agg, ok := having.Child.(*plan.Aggregate)
	if !ok || len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Fatalf("agg = %v", having.Child)
	}
}

func TestImplicitAggregateWithoutGroupBy(t *testing.T) {
	q := mustQuery(t, "SELECT COUNT(*) FROM t")
	if _, ok := q.(*plan.Aggregate); !ok {
		t.Fatalf("root = %T, want Aggregate", q)
	}
}

func TestParseJoins(t *testing.T) {
	cases := []struct {
		src string
		typ plan.JoinType
	}{
		{"SELECT * FROM a JOIN b ON a.id = b.id", plan.JoinInner},
		{"SELECT * FROM a INNER JOIN b ON a.id = b.id", plan.JoinInner},
		{"SELECT * FROM a LEFT JOIN b ON a.id = b.id", plan.JoinLeft},
		{"SELECT * FROM a LEFT OUTER JOIN b ON a.id = b.id", plan.JoinLeft},
		{"SELECT * FROM a RIGHT JOIN b ON a.id = b.id", plan.JoinRight},
		{"SELECT * FROM a FULL JOIN b ON a.id = b.id", plan.JoinFull},
		{"SELECT * FROM a CROSS JOIN b", plan.JoinCross},
		{"SELECT * FROM a LEFT SEMI JOIN b ON a.id = b.id", plan.JoinLeftSemi},
		{"SELECT * FROM a LEFT ANTI JOIN b ON a.id = b.id", plan.JoinLeftAnti},
		{"SELECT * FROM a, b", plan.JoinCross},
	}
	for _, c := range cases {
		q := mustQuery(t, c.src)
		found := false
		plan.Walk(q, func(n plan.Node) bool {
			if j, ok := n.(*plan.Join); ok {
				if j.Type != c.typ {
					t.Errorf("%q: join type %v, want %v", c.src, j.Type, c.typ)
				}
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("%q: no join in plan", c.src)
		}
	}
}

func TestParseSubqueryAndCTE(t *testing.T) {
	q := mustQuery(t, "WITH us AS (SELECT * FROM sales WHERE region = 'US') SELECT seller FROM us")
	if !plan.Contains(q, func(n plan.Node) bool {
		sa, ok := n.(*plan.SubqueryAlias)
		return ok && sa.Name == "us"
	}) {
		t.Error("CTE not substituted")
	}
	q2 := mustQuery(t, "SELECT x FROM (SELECT a AS x FROM t) sub")
	if !plan.Contains(q2, func(n plan.Node) bool {
		sa, ok := n.(*plan.SubqueryAlias)
		return ok && sa.Name == "sub"
	}) {
		t.Error("subquery alias missing")
	}
}

func TestParseUnion(t *testing.T) {
	q := mustQuery(t, "SELECT a FROM t UNION ALL SELECT a FROM u")
	if _, ok := q.(*plan.Union); !ok {
		t.Fatalf("root = %T", q)
	}
	q2 := mustQuery(t, "SELECT a FROM t UNION SELECT a FROM u")
	if _, ok := q2.(*plan.Distinct); !ok {
		t.Fatalf("UNION should wrap in Distinct, got %T", q2)
	}
}

func TestParseValues(t *testing.T) {
	q := mustQuery(t, "VALUES (1, 'a'), (2, 'b')")
	lr, ok := q.(*plan.LocalRelation)
	if !ok {
		t.Fatalf("root = %T", q)
	}
	if lr.Data.NumRows() != 2 || lr.Data.NumCols() != 2 {
		t.Fatalf("shape %dx%d", lr.Data.NumRows(), lr.Data.NumCols())
	}
	if lr.Data.Cols[0].Int64(1) != 2 || lr.Data.Cols[1].StringAt(0) != "a" {
		t.Error("values content wrong")
	}
	if _, err := Parse("VALUES (1), (2, 3)"); err == nil {
		t.Error("expected arity error")
	}
}

func TestParseTimeTravel(t *testing.T) {
	q := mustQuery(t, "SELECT * FROM t VERSION AS OF 3")
	found := false
	plan.Walk(q, func(n plan.Node) bool {
		if r, ok := n.(*plan.UnresolvedRelation); ok && r.AsOfVersion == 3 {
			found = true
		}
		return true
	})
	if !found {
		t.Error("time travel version not captured")
	}
}

func TestParseCreateTable(t *testing.T) {
	st := mustParse(t, "CREATE TABLE main.clinical.raw (id BIGINT NOT NULL, name STRING COMMENT 'patient', score DOUBLE)")
	ct, ok := st.Cmd.(*plan.CreateTable)
	if !ok {
		t.Fatalf("cmd = %T", st.Cmd)
	}
	if len(ct.Name) != 3 || ct.TableSchema.Len() != 3 {
		t.Fatal("create table shape")
	}
	if ct.TableSchema.Fields[0].Nullable {
		t.Error("NOT NULL not captured")
	}
	if ct.TableSchema.Fields[1].Comment != "patient" {
		t.Error("comment not captured")
	}
}

func TestParseCreateViewCapturesBody(t *testing.T) {
	st := mustParse(t, "CREATE VIEW v AS SELECT a FROM t WHERE a > 1")
	cv := st.Cmd.(*plan.CreateView)
	if cv.Query != "SELECT a FROM t WHERE a > 1" {
		t.Errorf("view body = %q", cv.Query)
	}
	st2 := mustParse(t, "CREATE OR REPLACE MATERIALIZED VIEW mv AS SELECT 1 AS one")
	cv2 := st2.Cmd.(*plan.CreateView)
	if !cv2.Materialized || !cv2.OrReplace {
		t.Error("flags not captured")
	}
}

func TestParseCreateFunction(t *testing.T) {
	st := mustParse(t, "CREATE FUNCTION main.fns.add2(a BIGINT, b BIGINT) RETURNS BIGINT AS 'return a + b'")
	cf := st.Cmd.(*plan.CreateFunction)
	if len(cf.Params) != 2 || cf.Returns != types.KindInt64 || cf.Body != "return a + b" {
		t.Fatalf("function = %+v", cf)
	}
}

func TestParseGrantRevoke(t *testing.T) {
	st := mustParse(t, "GRANT SELECT ON TABLE main.s.t TO 'alice@corp.com'")
	g := st.Cmd.(*plan.Grant)
	if g.Privilege != "SELECT" || g.Principal != "alice@corp.com" {
		t.Fatalf("grant = %+v", g)
	}
	st2 := mustParse(t, "REVOKE MODIFY ON main.s.t FROM data_scientists")
	r := st2.Cmd.(*plan.Revoke)
	if r.Privilege != "MODIFY" || r.Principal != "data_scientists" {
		t.Fatalf("revoke = %+v", r)
	}
	if _, err := Parse("GRANT FLY ON t TO u"); err == nil {
		t.Error("expected unknown privilege error")
	}
}

func TestParseRowFilterAndMask(t *testing.T) {
	st := mustParse(t, "ALTER TABLE main.s.sales SET ROW FILTER 'region = ''US'' OR IS_ACCOUNT_GROUP_MEMBER(''admins'')'")
	rf := st.Cmd.(*plan.SetRowFilter)
	if !strings.Contains(rf.FilterSQL, "region = 'US'") {
		t.Errorf("filter = %q", rf.FilterSQL)
	}
	st2 := mustParse(t, "ALTER TABLE t ALTER COLUMN ssn SET MASK 'CASE WHEN IS_ACCOUNT_GROUP_MEMBER(''hr'') THEN ssn ELSE ''***'' END'")
	cm := st2.Cmd.(*plan.SetColumnMask)
	if cm.Column != "ssn" {
		t.Fatalf("mask = %+v", cm)
	}
	st3 := mustParse(t, "ALTER TABLE t DROP ROW FILTER")
	if !st3.Cmd.(*plan.SetRowFilter).Drop {
		t.Error("drop flag missing")
	}
	st4 := mustParse(t, "ALTER TABLE t ALTER COLUMN c DROP MASK")
	if !st4.Cmd.(*plan.SetColumnMask).Drop {
		t.Error("mask drop flag missing")
	}
	// Invalid policy SQL rejected at DDL time.
	if _, err := Parse("ALTER TABLE t SET ROW FILTER 'region = '"); err == nil {
		t.Error("expected invalid filter expression error")
	}
}

func TestParseInsert(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	ins := st.Cmd.(*plan.InsertInto)
	if len(ins.Rows) != 2 {
		t.Fatalf("rows = %d", len(ins.Rows))
	}
	st2 := mustParse(t, "INSERT INTO t SELECT * FROM u")
	if st2.Cmd.(*plan.InsertInto).Query == nil {
		t.Error("insert-select query missing")
	}
}

func TestParseInsertNegativeValues(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (-5, CAST('2024-01-01' AS DATE))")
	ins := st.Cmd.(*plan.InsertInto)
	if ins.Rows[0][0].I != -5 {
		t.Errorf("negative literal = %v", ins.Rows[0][0])
	}
	if ins.Rows[0][1].Kind != types.KindDate {
		t.Errorf("cast literal kind = %v", ins.Rows[0][1].Kind)
	}
}

func TestParseExplainAndDrop(t *testing.T) {
	st := mustParse(t, "EXPLAIN SELECT 1")
	if !st.Explain || st.Query == nil {
		t.Error("explain flag")
	}
	st2 := mustParse(t, "DROP TABLE IF EXISTS t")
	d := st2.Cmd.(*plan.DropTable)
	if !d.IfExists || d.View {
		t.Error("drop table flags")
	}
	st3 := mustParse(t, "REFRESH MATERIALIZED VIEW mv")
	if st3.Cmd.(*plan.RefreshMaterializedView) == nil {
		t.Error("refresh missing")
	}
}

func TestParseStatementErrors(t *testing.T) {
	bad := []string{
		"", "SELEC 1", "SELECT 1 FROM", "SELECT * FROM t WHERE",
		"CREATE NONSENSE x", "SELECT 1 extra garbage ,",
		"INSERT INTO t VALUES (a)", // non-constant
		"SELECT * FROM t LIMIT x",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	q := mustQuery(t, "SELECT 1 + 2 AS three")
	proj, ok := q.(*plan.Project)
	if !ok {
		t.Fatalf("root = %T", q)
	}
	if _, ok := proj.Child.(*plan.LocalRelation); !ok {
		t.Fatalf("child = %T", proj.Child)
	}
}

func TestParseDistinct(t *testing.T) {
	q := mustQuery(t, "SELECT DISTINCT region FROM sales")
	if _, ok := q.(*plan.Distinct); !ok {
		t.Fatalf("root = %T", q)
	}
}

func TestTrailingSemicolon(t *testing.T) {
	mustQuery(t, "SELECT 1;")
}

// A lexer error right after a token the parser matched fails the statement
// with that error. Before the parser kept it, CASE and NOT re-entered
// themselves on the token they never consumed until the stack overflowed.
func TestLexerErrorAfterMatchedToken(t *testing.T) {
	for _, src := range []string{
		"SELECT CASE @ END", "SELECT NOT @", "SELECT 1 FROM t WHERE NOT NOT @",
		"SELECT a FROM t INNER @", "SELECT 1;@",
	} {
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "@") {
			t.Errorf("Parse(%q) = %v, want the lexer error at @", src, err)
		}
	}
	for _, src := range []string{"CASE @ END", "NOT NOT @", "a AND @"} {
		if _, err := ParseExpr(src); err == nil || !strings.Contains(err.Error(), "@") {
			t.Errorf("ParseExpr(%q) = %v, want the lexer error at @", src, err)
		}
	}
}
