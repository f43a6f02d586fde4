package sql

import (
	"strconv"
	"strings"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Expression grammar, precedence climbing:
//
//	expr     := orExpr
//	orExpr   := andExpr (OR andExpr)*
//	andExpr  := notExpr (AND notExpr)*
//	notExpr  := NOT notExpr | predicate
//	predicate:= additive ((=|<>|<|<=|>|>=) additive
//	           | IS [NOT] NULL | [NOT] IN (...) | [NOT] LIKE additive
//	           | [NOT] BETWEEN additive AND additive)?
//	additive := multiplicative ((+|-|'||') multiplicative)*
//	multiplicative := unary ((*|/|%) unary)*
//	unary    := - unary | primary
//	primary  := literal | CAST(...) | CASE ... | func(...) | ident[.ident]*
//	           | ( expr )

func (p *parser) parseExpr() (plan.Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	return p.parseOr()
}

func (p *parser) parseOr() (plan.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = plan.NewBinary(plan.OpOr, left, right)
	}
	return left, nil
}

func (p *parser) parseAnd() (plan.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.peekKeyword("AND") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = plan.NewBinary(plan.OpAnd, left, right)
	}
	return left, nil
}

func (p *parser) parseNot() (plan.Expr, error) {
	if p.accept("NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		child, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &plan.Unary{Op: plan.OpNot, Child: child}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (plan.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	if p.cur.Kind == TokOp {
		var op plan.BinOp
		matched := true
		switch p.cur.Text {
		case "=":
			op = plan.OpEq
		case "<>", "!=":
			op = plan.OpNeq
		case "<":
			op = plan.OpLt
		case "<=":
			op = plan.OpLte
		case ">":
			op = plan.OpGt
		case ">=":
			op = plan.OpGte
		default:
			matched = false
		}
		if matched {
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return plan.NewBinary(op, left, right), nil
		}
	}
	negated := false
	if p.peekKeyword("NOT") {
		// lookahead for NOT IN / NOT LIKE / NOT BETWEEN
		if err := p.advance(); err != nil {
			return nil, err
		}
		negated = true
	}
	switch {
	case p.accept("IS"):
		isNot := p.accept("NOT")
		if err := p.expect("NULL"); err != nil {
			return nil, err
		}
		return &plan.IsNull{Child: left, Negated: isNot != negated}, nil
	case p.accept("IN"):
		if err := p.expect("("); err != nil {
			return nil, err
		}
		var list []plan.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return &plan.InList{Child: left, List: list, Negated: negated}, nil
	case p.accept("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &plan.Like{Child: left, Pattern: pat, Negated: negated}, nil
	case p.accept("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		between := plan.And(
			plan.NewBinary(plan.OpGte, left, lo),
			plan.NewBinary(plan.OpLte, left, hi),
		)
		if negated {
			return &plan.Unary{Op: plan.OpNot, Child: between}, nil
		}
		return between, nil
	}
	if negated {
		return nil, p.errorf("expected IN, LIKE, or BETWEEN after NOT")
	}
	return left, nil
}

func (p *parser) parseAdditive() (plan.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokOp && (p.cur.Text == "+" || p.cur.Text == "-" || p.cur.Text == "||") {
		var op plan.BinOp
		switch p.cur.Text {
		case "+":
			op = plan.OpAdd
		case "-":
			op = plan.OpSub
		case "||":
			op = plan.OpConcat
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = plan.NewBinary(op, left, right)
	}
	return left, nil
}

func (p *parser) parseMultiplicative() (plan.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.cur.Kind == TokOp && (p.cur.Text == "*" || p.cur.Text == "/" || p.cur.Text == "%") {
		var op plan.BinOp
		switch p.cur.Text {
		case "*":
			op = plan.OpMul
		case "/":
			op = plan.OpDiv
		case "%":
			op = plan.OpMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = plan.NewBinary(op, left, right)
	}
	return left, nil
}

func (p *parser) parseUnary() (plan.Expr, error) {
	if p.cur.Kind == TokOp && p.cur.Text == "-" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold negative numeric literals immediately.
		if lit, ok := child.(*plan.Literal); ok {
			switch lit.Value.Kind {
			case types.KindInt64:
				return plan.Lit(types.Int64(-lit.Value.I)), nil
			case types.KindFloat64:
				return plan.Lit(types.Float64(-lit.Value.F)), nil
			}
		}
		return &plan.Unary{Op: plan.OpNeg, Child: child}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (plan.Expr, error) {
	switch p.cur.Kind {
	case TokNumber:
		text := p.cur.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if strings.ContainsAny(text, ".eE") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, p.errorf("invalid number %q", text)
			}
			return plan.Lit(types.Float64(f)), nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid integer %q", text)
		}
		return plan.Lit(types.Int64(i)), nil
	case TokString:
		s := p.cur.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return plan.Lit(types.String(s)), nil
	case TokOp:
		if p.cur.Text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errorf("unexpected token %q in expression", p.cur.Text)
	case TokIdent, TokQuotedIdent:
		return p.parseIdentExpr()
	}
	return nil, p.errorf("unexpected end of expression")
}

// parseIdentExpr parses keyword literals, typed literals, function calls,
// CASE, CAST, and column references.
func (p *parser) parseIdentExpr() (plan.Expr, error) {
	name := p.cur.Text
	quoted := p.cur.Kind == TokQuotedIdent
	upper := strings.ToUpper(name)
	if !quoted {
		switch upper {
		case "TRUE":
			return plan.Lit(types.Bool(true)), p.advance()
		case "FALSE":
			return plan.Lit(types.Bool(false)), p.advance()
		case "NULL":
			return plan.Lit(types.Null(types.KindNull)), p.advance()
		case "DATE":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.cur.Kind == TokString {
				v, err := types.DateFromString(p.cur.Text)
				if err != nil {
					return nil, p.errorf("%v", err)
				}
				return plan.Lit(v), p.advance()
			}
			return plan.Col(name), nil
		case "TIMESTAMP":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.cur.Kind == TokString {
				v, err := types.TimestampFromString(p.cur.Text)
				if err != nil {
					return nil, p.errorf("%v", err)
				}
				return plan.Lit(v), p.advance()
			}
			return plan.Col(name), nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			return p.parseCast()
		}
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	// Function call?
	if p.cur.Kind == TokOp && p.cur.Text == "(" {
		return p.parseFuncCall(name)
	}
	// Qualified reference: a.b or a.b.c (we keep last as column, rest joined
	// as qualifier), or qualified star a.*
	qualifier := ""
	col := name
	for p.cur.Kind == TokOp && p.cur.Text == "." {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.cur.Kind == TokOp && p.cur.Text == "*" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			q := col
			if qualifier != "" {
				q = qualifier + "." + col
			}
			return &plan.Star{Qualifier: q}, nil
		}
		next, err := p.ident()
		if err != nil {
			return nil, err
		}
		if qualifier == "" {
			qualifier = col
		} else {
			qualifier = qualifier + "." + col
		}
		col = next
	}
	return &plan.ColumnRef{Qualifier: qualifier, Name: col}, nil
}

func (p *parser) parseFuncCall(name string) (plan.Expr, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	upper := strings.ToUpper(name)
	// COUNT(*)
	if p.cur.Kind == TokOp && p.cur.Text == "*" {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if upper != "COUNT" {
			return nil, p.errorf("only COUNT supports (*)")
		}
		return &plan.FuncCall{Name: "count"}, nil
	}
	distinct := false
	if p.accept("DISTINCT") {
		distinct = true
	}
	var args []plan.Expr
	if !(p.cur.Kind == TokOp && p.cur.Text == ")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.accept(",") {
				break
			}
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	// Session functions get dedicated nodes so policies can embed them.
	switch upper {
	case "CURRENT_USER":
		if len(args) != 0 {
			return nil, p.errorf("CURRENT_USER takes no arguments")
		}
		return &plan.CurrentUser{}, nil
	case "IS_ACCOUNT_GROUP_MEMBER":
		if len(args) != 1 {
			return nil, p.errorf("IS_ACCOUNT_GROUP_MEMBER takes one argument")
		}
		lit, ok := args[0].(*plan.Literal)
		if !ok || lit.Value.Kind != types.KindString {
			return nil, p.errorf("IS_ACCOUNT_GROUP_MEMBER requires a string literal")
		}
		return &plan.GroupMember{Group: lit.Value.S}, nil
	}
	return &plan.FuncCall{Name: strings.ToLower(name), Args: args, Distinct: distinct}, nil
}

func (p *parser) parseCase() (plan.Expr, error) {
	if err := p.expect("CASE"); err != nil {
		return nil, err
	}
	var operand plan.Expr
	if !p.peekKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		operand = op
	}
	var whens []plan.WhenClause
	for p.accept("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if operand != nil {
			cond = plan.Eq(operand, cond)
		}
		if err := p.expect("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		whens = append(whens, plan.WhenClause{Cond: cond, Then: then})
	}
	if len(whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	var elseExpr plan.Expr
	if p.accept("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		elseExpr = e
	}
	if err := p.expect("END"); err != nil {
		return nil, err
	}
	return &plan.Case{Whens: whens, Else: elseExpr}, nil
}

func (p *parser) parseCast() (plan.Expr, error) {
	if err := p.expect("CAST"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	child, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("AS"); err != nil {
		return nil, err
	}
	typeName, err := p.ident()
	if err != nil {
		return nil, err
	}
	kind, ok := types.KindFromName(typeName)
	if !ok {
		return nil, p.errorf("unknown type %q in CAST", typeName)
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	return &plan.Cast{Child: child, To: kind}, nil
}
