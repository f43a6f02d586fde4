package sql

import (
	"fmt"
	"strconv"
	"strings"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Statement is the result of parsing one SQL statement: either a query plan
// (Query != nil) or a command (Cmd != nil). Explain marks EXPLAIN queries.
type Statement struct {
	Query   plan.Node
	Cmd     plan.Command
	Explain bool
}

// Parse parses a single SQL statement.
func Parse(src string) (*Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	st, err := p.parseStatement()
	if err != nil {
		return nil, p.firstErr(err)
	}
	p.accept(";")
	if p.err != nil {
		return nil, p.err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.cur.Text)
	}
	return st, nil
}

// ParseExpr parses a standalone SQL expression (used for stored row-filter
// and column-mask policy text).
func ParseExpr(src string) (plan.Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, p.firstErr(err)
	}
	if p.err != nil {
		return nil, p.err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %q", p.cur.Text)
	}
	return e, nil
}

// ParseQuery parses a statement and requires it to be a query.
func ParseQuery(src string) (plan.Node, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if st.Query == nil {
		return nil, fmt.Errorf("expected a query, got %s", st.Cmd.CommandName())
	}
	return st.Query, nil
}

type parser struct {
	lex  *Lexer
	cur  Token
	prev Token
	// err is the first lexer error. Once it is set the parser matches no
	// further token, so no rule can re-enter itself on a token it never
	// consumed, and the statement fails with this error.
	err error
	// depth counts the nested rules open on the stack (see nest).
	depth int
}

func newParser(src string) (*parser, error) {
	p := &parser{lex: NewLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *parser) advance() error {
	if p.err != nil {
		return p.err
	}
	p.prev = p.cur
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		return err
	}
	p.cur = t
	return nil
}

func (p *parser) atEOF() bool { return p.cur.Kind == TokEOF }

// nest opens one level of nesting. Every recursive rule passes through it, so
// a statement deeper than plan.MaxNestingDepth fails as a parse error instead
// of growing the stack. The caller defers p.unnest() once nest succeeds.
func (p *parser) nest() error {
	if p.depth >= plan.MaxNestingDepth {
		return p.errorf("statement nested deeper than %d levels", plan.MaxNestingDepth)
	}
	p.depth++
	return nil
}

func (p *parser) unnest() { p.depth-- }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near position %d)", fmt.Sprintf(format, args...), p.cur.Pos)
}

// peekKeyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) peekKeyword(kw string) bool {
	return p.cur.Kind == TokIdent && strings.EqualFold(p.cur.Text, kw)
}

// accept consumes the current token if it matches the keyword or operator.
// It reports no match once a lexer error is pending, including the error
// met while consuming this token.
func (p *parser) accept(s string) bool {
	if p.err != nil {
		return false
	}
	if p.cur.Kind == TokOp && p.cur.Text == s || p.peekKeyword(s) {
		return p.advance() == nil
	}
	return false
}

// expect consumes the keyword/operator or fails, with the pending lexer
// error when there is one.
func (p *parser) expect(s string) error {
	if !p.accept(s) {
		return p.firstErr(p.errorf("expected %q, found %q", s, p.cur.Text))
	}
	return nil
}

// firstErr returns the pending lexer error, or err when there is none: a
// parse error met after a lexer error is a consequence of it.
func (p *parser) firstErr(err error) error {
	if p.err != nil {
		return p.err
	}
	return err
}

// ident consumes an identifier (plain or quoted).
func (p *parser) ident() (string, error) {
	if p.cur.Kind == TokIdent || p.cur.Kind == TokQuotedIdent {
		name := p.cur.Text
		if err := p.advance(); err != nil {
			return "", err
		}
		return name, nil
	}
	return "", p.errorf("expected identifier, found %q", p.cur.Text)
}

// qualifiedName consumes ident(.ident)*.
func (p *parser) qualifiedName() ([]string, error) {
	first, err := p.ident()
	if err != nil {
		return nil, err
	}
	parts := []string{first}
	for p.cur.Kind == TokOp && p.cur.Text == "." {
		if err := p.advance(); err != nil {
			return nil, err
		}
		next, err := p.ident()
		if err != nil {
			return nil, err
		}
		parts = append(parts, next)
	}
	return parts, nil
}

func (p *parser) parseStatement() (*Statement, error) {
	switch {
	case p.peekKeyword("EXPLAIN"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		inner.Explain = true
		return inner, nil
	case p.peekKeyword("SELECT"), p.peekKeyword("WITH"), p.peekKeyword("VALUES"),
		p.cur.Kind == TokOp && p.cur.Text == "(":
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		return &Statement{Query: q}, nil
	case p.peekKeyword("CREATE"):
		return p.parseCreate()
	case p.peekKeyword("DROP"):
		return p.parseDrop()
	case p.peekKeyword("INSERT"):
		return p.parseInsert()
	case p.peekKeyword("GRANT"), p.peekKeyword("REVOKE"):
		return p.parseGrantRevoke()
	case p.peekKeyword("ALTER"):
		return p.parseAlter()
	case p.peekKeyword("REFRESH"):
		return p.parseRefresh()
	case p.peekKeyword("DELETE"):
		return p.parseDelete()
	case p.peekKeyword("UPDATE"):
		return p.parseUpdate()
	case p.peekKeyword("MERGE"):
		return p.parseMerge()
	case p.peekKeyword("OPTIMIZE"):
		return p.parseOptimize()
	case p.peekKeyword("VACUUM"):
		return p.parseVacuum()
	case p.peekKeyword("SHOW"):
		return p.parseShow()
	case p.peekKeyword("DESCRIBE"), p.peekKeyword("DESC"):
		return p.parseDescribe()
	}
	return nil, p.errorf("unsupported statement starting with %q", p.cur.Text)
}

// parseDelete parses DELETE FROM t [WHERE pred].
func (p *parser) parseDelete() (*Statement, error) {
	if err := p.expect("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expect("FROM"); err != nil {
		return nil, err
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	var where plan.Expr
	if p.accept("WHERE") {
		where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return &Statement{Cmd: &plan.DeleteFrom{Table: name, Where: where}}, nil
}

// parseShow parses SHOW TABLES.
func (p *parser) parseShow() (*Statement, error) {
	if err := p.expect("SHOW"); err != nil {
		return nil, err
	}
	if err := p.expect("TABLES"); err != nil {
		return nil, err
	}
	return &Statement{Cmd: &plan.ShowTables{}}, nil
}

// parseDescribe parses DESCRIBE [TABLE|HISTORY] t.
func (p *parser) parseDescribe() (*Statement, error) {
	if !p.accept("DESCRIBE") && !p.accept("DESC") {
		return nil, p.errorf("expected DESCRIBE")
	}
	if p.accept("HISTORY") {
		name, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		return &Statement{Cmd: &plan.DescribeHistory{Name: name}}, nil
	}
	p.accept("TABLE")
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	return &Statement{Cmd: &plan.DescribeTable{Name: name}}, nil
}

// parseQueryExpr parses a query with optional WITH prefix and UNION chains.
func (p *parser) parseQueryExpr() (plan.Node, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	ctes := map[string]plan.Node{}
	if p.accept("WITH") {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			sub, err := p.parseQueryExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			ctes[strings.ToLower(name)] = &plan.SubqueryAlias{Name: name, Child: sub}
			if !p.accept(",") {
				break
			}
		}
	}
	node, err := p.parseUnionTerm()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("UNION") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		all := p.accept("ALL")
		right, err := p.parseUnionTerm()
		if err != nil {
			return nil, err
		}
		node = &plan.Union{L: node, R: right}
		if !all {
			node = &plan.Distinct{Child: node}
		}
	}
	// ORDER BY / LIMIT after a union chain binds to the whole thing.
	node, err = p.parseOrderLimit(node)
	if err != nil {
		return nil, err
	}
	if len(ctes) > 0 {
		node = substituteCTEs(node, ctes)
	}
	return node, nil
}

// substituteCTEs replaces unresolved relations whose single-part name matches
// a CTE with the CTE subtree.
func substituteCTEs(n plan.Node, ctes map[string]plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		if r, ok := x.(*plan.UnresolvedRelation); ok && len(r.Parts) == 1 {
			if sub, found := ctes[strings.ToLower(r.Parts[0])]; found {
				return sub
			}
		}
		return x
	})
}

func (p *parser) parseUnionTerm() (plan.Node, error) {
	if p.cur.Kind == TokOp && p.cur.Text == "(" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		q, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return q, nil
	}
	if p.peekKeyword("VALUES") {
		return p.parseValuesRelation()
	}
	return p.parseSelect()
}

// parseValuesRelation parses VALUES (1,'a'),(2,'b') into a LocalRelation.
func (p *parser) parseValuesRelation() (plan.Node, error) {
	if err := p.expect("VALUES"); err != nil {
		return nil, err
	}
	rows, err := p.parseValuesRows()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, p.errorf("VALUES requires at least one row")
	}
	schema := &types.Schema{}
	for i, v := range rows[0] {
		k := v.Kind
		if k == types.KindNull {
			k = types.KindString
		}
		schema.Fields = append(schema.Fields, types.Field{Name: fmt.Sprintf("col%d", i+1), Kind: k, Nullable: true})
	}
	bb := types.NewBatchBuilder(schema, len(rows))
	for _, row := range rows {
		if len(row) != schema.Len() {
			return nil, p.errorf("VALUES rows have inconsistent arity")
		}
		cast := make([]types.Value, len(row))
		for i, v := range row {
			cv, err := v.Cast(schema.Fields[i].Kind)
			if err != nil {
				return nil, p.errorf("VALUES row value %v incompatible with column %d: %v", v, i+1, err)
			}
			cast[i] = cv
		}
		bb.AppendRow(cast)
	}
	return &plan.LocalRelation{Data: bb.Build()}, nil
}

// parseValuesRows parses (expr,...),(expr,...) of constant literals.
func (p *parser) parseValuesRows() ([][]types.Value, error) {
	var rows [][]types.Value
	for {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var row []types.Value
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			v, err := constEval(e)
			if err != nil {
				return nil, p.errorf("VALUES requires constant expressions: %v", err)
			}
			row = append(row, v)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if !p.accept(",") {
			return rows, nil
		}
	}
}

// constEval evaluates literal-only expressions at parse time (VALUES rows).
func constEval(e plan.Expr) (types.Value, error) {
	switch t := e.(type) {
	case *plan.Literal:
		return t.Value, nil
	case *plan.Unary:
		if t.Op == plan.OpNeg {
			v, err := constEval(t.Child)
			if err != nil {
				return types.Value{}, err
			}
			switch v.Kind {
			case types.KindInt64:
				return types.Int64(-v.I), nil
			case types.KindFloat64:
				return types.Float64(-v.F), nil
			}
		}
	case *plan.Cast:
		v, err := constEval(t.Child)
		if err != nil {
			return types.Value{}, err
		}
		return v.Cast(t.To)
	}
	return types.Value{}, fmt.Errorf("not a constant: %s", e.String())
}

// parseSelect parses a single SELECT ... block.
func (p *parser) parseSelect() (plan.Node, error) {
	if err := p.expect("SELECT"); err != nil {
		return nil, err
	}
	distinct := p.accept("DISTINCT")
	var items []plan.Expr
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if !p.accept(",") {
			break
		}
	}

	var node plan.Node
	if p.accept("FROM") {
		from, err := p.parseFromClause()
		if err != nil {
			return nil, err
		}
		node = from
	} else {
		// SELECT without FROM: one-row relation.
		one := types.NewBatchBuilder(types.NewSchema(types.Field{Name: "dummy", Kind: types.KindInt64}), 1)
		one.AppendRow([]types.Value{types.Int64(0)})
		node = &plan.LocalRelation{Data: one.Build()}
	}

	if p.accept("WHERE") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		node = &plan.Filter{Cond: cond, Child: node}
	}

	var groupBy []plan.Expr
	hasGroupBy := false
	if p.peekKeyword("GROUP") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		hasGroupBy = true
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			groupBy = append(groupBy, g)
			if !p.accept(",") {
				break
			}
		}
	}

	var having plan.Expr
	if p.accept("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		having = h
	}

	if hasGroupBy || having != nil || containsAggregate(items) {
		node = &plan.Aggregate{GroupBy: groupBy, Aggs: items, Child: node}
		if having != nil {
			node = &plan.Filter{Cond: having, Child: node}
		}
	} else {
		node = &plan.Project{Exprs: items, Child: node}
	}

	if distinct {
		node = &plan.Distinct{Child: node}
	}
	// ORDER BY / LIMIT belong to the enclosing query expression: after a
	// union chain they sort the whole union, by the left branch's names.
	return node, nil
}

// parseOrderLimit attaches optional ORDER BY and LIMIT/OFFSET clauses.
func (p *parser) parseOrderLimit(node plan.Node) (plan.Node, error) {
	if p.peekKeyword("ORDER") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect("BY"); err != nil {
			return nil, err
		}
		var orders []plan.SortOrder
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			o := plan.SortOrder{Expr: e}
			if p.accept("DESC") {
				o.Desc = true
			} else {
				p.accept("ASC")
			}
			orders = append(orders, o)
			if !p.accept(",") {
				break
			}
		}
		node = &plan.Sort{Orders: orders, Child: node}
	}
	if p.accept("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		var offset int64
		if p.accept("OFFSET") {
			offset, err = p.parseIntLiteral()
			if err != nil {
				return nil, err
			}
		}
		node = &plan.Limit{N: n, Offset: offset, Child: node}
	}
	return node, nil
}

func (p *parser) parseIntLiteral() (int64, error) {
	if p.cur.Kind != TokNumber {
		return 0, p.errorf("expected integer, found %q", p.cur.Text)
	}
	n, err := strconv.ParseInt(p.cur.Text, 10, 64)
	if err != nil {
		return 0, p.errorf("invalid integer %q", p.cur.Text)
	}
	if err := p.advance(); err != nil {
		return 0, err
	}
	return n, nil
}

func (p *parser) parseSelectItem() (plan.Expr, error) {
	// Star and qualified star.
	if p.cur.Kind == TokOp && p.cur.Text == "*" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &plan.Star{}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	// t.* comes out of parseExpr as a ColumnRef followed by ".*"? No — handle
	// qualified star here: ColumnRef ending in parse position ".*" is handled
	// in parsePrimary. Aliases:
	if p.accept("AS") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return plan.As(e, name), nil
	}
	// Implicit alias: bare identifier following an expression.
	if p.cur.Kind == TokIdent && !p.isClauseKeyword(p.cur.Text) {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return plan.As(e, name), nil
	}
	return e, nil
}

var clauseKeywords = map[string]bool{
	"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true,
	"LIMIT": true, "OFFSET": true, "UNION": true, "ON": true, "JOIN": true,
	"INNER": true, "LEFT": true, "RIGHT": true, "FULL": true, "CROSS": true,
	"AND": true, "OR": true, "NOT": true, "AS": true, "ASC": true, "DESC": true,
	"WHEN": true, "THEN": true, "ELSE": true, "END": true, "IN": true,
	"IS": true, "LIKE": true, "BETWEEN": true, "CASE": true, "VALUES": true,
	"SELECT": true, "DISTINCT": true, "WITH": true, "VERSION": true, "SEMI": true, "ANTI": true,
}

func (p *parser) isClauseKeyword(s string) bool { return clauseKeywords[strings.ToUpper(s)] }

// parseFromClause parses table refs with joins.
func (p *parser) parseFromClause() (plan.Node, error) {
	left, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	for {
		// Comma join = cross join.
		if p.accept(",") {
			right, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			left = &plan.Join{Type: plan.JoinCross, L: left, R: right}
			continue
		}
		jt, isJoin, err := p.parseJoinType()
		if err != nil {
			return nil, err
		}
		if !isJoin {
			return left, nil
		}
		right, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		var cond plan.Expr
		if jt != plan.JoinCross {
			if err := p.expect("ON"); err != nil {
				return nil, err
			}
			cond, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		left = &plan.Join{Type: jt, Cond: cond, L: left, R: right}
	}
}

func (p *parser) parseJoinType() (plan.JoinType, bool, error) {
	switch {
	case p.accept("JOIN"):
		return plan.JoinInner, true, nil
	case p.peekKeyword("INNER"):
		_ = p.advance()
		return plan.JoinInner, true, p.expect("JOIN")
	case p.peekKeyword("LEFT"):
		_ = p.advance()
		if p.accept("SEMI") {
			return plan.JoinLeftSemi, true, p.expect("JOIN")
		}
		if p.accept("ANTI") {
			return plan.JoinLeftAnti, true, p.expect("JOIN")
		}
		p.accept("OUTER")
		return plan.JoinLeft, true, p.expect("JOIN")
	case p.peekKeyword("RIGHT"):
		_ = p.advance()
		p.accept("OUTER")
		return plan.JoinRight, true, p.expect("JOIN")
	case p.peekKeyword("FULL"):
		_ = p.advance()
		p.accept("OUTER")
		return plan.JoinFull, true, p.expect("JOIN")
	case p.peekKeyword("CROSS"):
		_ = p.advance()
		return plan.JoinCross, true, p.expect("JOIN")
	}
	return 0, false, nil
}

// parseTableRef parses a base table, subquery, or VALUES with optional alias.
func (p *parser) parseTableRef() (plan.Node, error) {
	var node plan.Node
	if p.cur.Kind == TokOp && p.cur.Text == "(" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		sub, err := p.parseQueryExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		node = sub
	} else if p.peekKeyword("VALUES") {
		v, err := p.parseValuesRelation()
		if err != nil {
			return nil, err
		}
		node = v
	} else {
		parts, err := p.qualifiedName()
		if err != nil {
			return nil, err
		}
		rel := plan.NewUnresolvedRelation(parts...)
		// Time travel: VERSION AS OF n
		if p.peekKeyword("VERSION") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect("AS"); err != nil {
				return nil, err
			}
			if err := p.expect("OF"); err != nil {
				return nil, err
			}
			v, err := p.parseIntLiteral()
			if err != nil {
				return nil, err
			}
			rel.AsOfVersion = v
		}
		node = rel
	}
	// Optional alias.
	if p.accept("AS") {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &plan.SubqueryAlias{Name: name, Child: node}, nil
	}
	if p.cur.Kind == TokIdent && !p.isClauseKeyword(p.cur.Text) {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &plan.SubqueryAlias{Name: name, Child: node}, nil
	}
	return node, nil
}

// containsAggregate reports whether any select item contains an aggregate
// function call (by name, pre-resolution).
func containsAggregate(items []plan.Expr) bool {
	for _, it := range items {
		if plan.ExprContains(it, func(e plan.Expr) bool {
			if f, ok := e.(*plan.FuncCall); ok {
				return isAggregateName(f.Name)
			}
			_, ok := e.(*plan.AggFunc)
			return ok
		}) {
			return true
		}
	}
	return false
}

func isAggregateName(name string) bool {
	switch strings.ToLower(name) {
	case "sum", "count", "min", "max", "avg":
		return true
	}
	return false
}
