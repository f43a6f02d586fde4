package analyzer

import (
	"fmt"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// DMLScope is one namespace a DML expression reads: the names that may
// qualify its columns (a table's name, its full name, an alias; none for an
// unaliased subquery) and its schema, whose first column is column Base of
// the rows the expression is evaluated over.
type DMLScope struct {
	Names  []string
	Schema *types.Schema
	Base   int
}

// AnalyzeDMLExpr resolves and types a DML expression (a DELETE or UPDATE
// WHERE, a SET value, a MERGE ON or INSERT value) against scopes as a
// query's expressions are resolved: columns bind, functions resolve,
// operators get their result kinds and implicit casts are inserted. A
// user-defined function is refused, because DML runs no sealed, verified
// plan to hand the sandbox; so is an aggregate.
func (a *Analyzer) AnalyzeDMLExpr(e plan.Expr, scopes []DMLScope) (plan.Expr, error) {
	sc := &scope{}
	for _, s := range scopes {
		for i, f := range s.Schema.Fields {
			c := scopeCol{name: f.Name, kind: f.Kind, index: s.Base + i}
			if len(s.Names) > 0 {
				c.qualifier, c.aliases = s.Names[0], s.Names[1:]
			}
			sc.cols = append(sc.cols, c)
		}
	}
	out, err := a.resolveExpr(e, sc)
	if err != nil {
		return nil, err
	}
	var refused plan.Expr
	plan.ExprContains(out, func(x plan.Expr) bool {
		switch x.(type) {
		case *plan.UDFCall, *plan.AggFunc:
			refused = x
			return true
		}
		return false
	})
	switch t := refused.(type) {
	case *plan.UDFCall:
		return nil, fmt.Errorf("analyzer: user-defined function %s cannot run in DML: only a verified query plan may call user code", t.Name)
	case *plan.AggFunc:
		return nil, fmt.Errorf("analyzer: aggregate %s is not allowed in DML", plan.RedactedString(t))
	}
	return out, nil
}
