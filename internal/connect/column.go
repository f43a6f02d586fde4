// Package connect implements the Connect protocol endpoints (the Spark
// Connect analog, paper §3.2): an HTTP service that accepts serialized
// unresolved plans and answers with arrowipc result batches, with session
// management, reattachable executions, and operation tombstoning; plus the
// Go client with a DataFrame API that captures operations and lowers them to
// the wire format. A failed statement or a small one-frame answer is one HTTP
// round trip and holds nothing on the service; only a larger or multi-frame
// answer is held as an operation the client can reattach to and releases.
package connect

import (
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Column is the client-side expression builder. Methods return new Columns;
// nothing is evaluated until an action runs the containing DataFrame.
type Column struct {
	expr plan.Expr
}

// Col references a column by (optionally qualified) name.
func Col(name string) Column { return Column{expr: plan.Col(name)} }

// Lit builds a literal column from a Go value (int, int64, float64, string,
// bool) or a types.Value.
func Lit(v any) Column {
	switch t := v.(type) {
	case types.Value:
		return Column{expr: plan.Lit(t)}
	case int:
		return Column{expr: plan.Lit(types.Int64(int64(t)))}
	case int64:
		return Column{expr: plan.Lit(types.Int64(t))}
	case float64:
		return Column{expr: plan.Lit(types.Float64(t))}
	case string:
		return Column{expr: plan.Lit(types.String(t))}
	case bool:
		return Column{expr: plan.Lit(types.Bool(t))}
	}
	panic("connect: unsupported literal type")
}

// Star selects all columns.
func Star() Column { return Column{expr: &plan.Star{}} }

// CurrentUser references the session user.
func CurrentUser() Column { return Column{expr: &plan.CurrentUser{}} }

// Call invokes a function (builtin, aggregate, or UDF) by name.
func Call(name string, args ...Column) Column {
	exprs := make([]plan.Expr, len(args))
	for i, a := range args {
		exprs[i] = a.expr
	}
	return Column{expr: &plan.FuncCall{Name: name, Args: exprs}}
}

// Expr exposes the underlying plan expression.
func (c Column) Expr() plan.Expr { return c.expr }

func (c Column) bin(op plan.BinOp, o Column) Column {
	return Column{expr: plan.NewBinary(op, c.expr, o.expr)}
}

// Eq builds c = o.
func (c Column) Eq(o Column) Column { return c.bin(plan.OpEq, o) }

// Neq builds c <> o.
func (c Column) Neq(o Column) Column { return c.bin(plan.OpNeq, o) }

// Lt builds c < o.
func (c Column) Lt(o Column) Column { return c.bin(plan.OpLt, o) }

// Lte builds c <= o.
func (c Column) Lte(o Column) Column { return c.bin(plan.OpLte, o) }

// Gt builds c > o.
func (c Column) Gt(o Column) Column { return c.bin(plan.OpGt, o) }

// Gte builds c >= o.
func (c Column) Gte(o Column) Column { return c.bin(plan.OpGte, o) }

// Add builds c + o.
func (c Column) Add(o Column) Column { return c.bin(plan.OpAdd, o) }

// Sub builds c - o.
func (c Column) Sub(o Column) Column { return c.bin(plan.OpSub, o) }

// Mul builds c * o.
func (c Column) Mul(o Column) Column { return c.bin(plan.OpMul, o) }

// Div builds c / o.
func (c Column) Div(o Column) Column { return c.bin(plan.OpDiv, o) }

// And builds c AND o.
func (c Column) And(o Column) Column { return c.bin(plan.OpAnd, o) }

// Or builds c OR o.
func (c Column) Or(o Column) Column { return c.bin(plan.OpOr, o) }

// Not negates a boolean column.
func (c Column) Not() Column {
	return Column{expr: &plan.Unary{Op: plan.OpNot, Child: c.expr}}
}

// IsNull tests for NULL.
func (c Column) IsNull() Column {
	return Column{expr: &plan.IsNull{Child: c.expr}}
}

// IsNotNull tests for non-NULL.
func (c Column) IsNotNull() Column {
	return Column{expr: &plan.IsNull{Child: c.expr, Negated: true}}
}

// Like matches a SQL pattern.
func (c Column) Like(pattern string) Column {
	return Column{expr: &plan.Like{Child: c.expr, Pattern: plan.Lit(types.String(pattern))}}
}

// In tests membership in a literal list.
func (c Column) In(items ...Column) Column {
	list := make([]plan.Expr, len(items))
	for i, it := range items {
		list[i] = it.expr
	}
	return Column{expr: &plan.InList{Child: c.expr, List: list}}
}

// Cast converts to a SQL type by name ("BIGINT", "DATE", ...).
func (c Column) Cast(typeName string) Column {
	kind, ok := types.KindFromName(typeName)
	if !ok {
		panic("connect: unknown type " + typeName)
	}
	return Column{expr: &plan.Cast{Child: c.expr, To: kind}}
}

// As names the column in the output.
func (c Column) As(name string) Column {
	return Column{expr: plan.As(c.expr, name)}
}

// Asc is an ascending sort key.
func (c Column) Asc() SortKey { return SortKey{expr: c.expr} }

// Desc is a descending sort key.
func (c Column) Desc() SortKey { return SortKey{expr: c.expr, desc: true} }

// SortKey is an ORDER BY term.
type SortKey struct {
	expr plan.Expr
	desc bool
}

// Aggregate builders.

// Sum aggregates a column.
func Sum(c Column) Column { return Call("sum", c) }

// Avg aggregates a column.
func Avg(c Column) Column { return Call("avg", c) }

// Min aggregates a column.
func Min(c Column) Column { return Call("min", c) }

// Max aggregates a column.
func Max(c Column) Column { return Call("max", c) }

// Count counts non-null values of a column.
func Count(c Column) Column { return Call("count", c) }

// CountAll counts rows.
func CountAll() Column { return Column{expr: &plan.FuncCall{Name: "count"}} }
