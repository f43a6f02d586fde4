// Package eval implements row-at-a-time evaluation of resolved plan
// expressions with SQL three-valued-logic semantics. It is shared by the
// physical operators (filters, projections, join conditions) and by the
// optimizer's constant folding. UDF calls are never evaluated here — they
// cross the sandbox boundary in batches — so encountering one is an error;
// the executor extracts them beforehand.
package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// RowFn supplies the value of input column i for the current row.
type RowFn func(i int) types.Value

// Context carries session state dynamic expressions need.
type Context struct {
	// User is the session user (CURRENT_USER()).
	User string
	// IsGroupMember answers IS_ACCOUNT_GROUP_MEMBER checks; nil means no
	// group memberships.
	IsGroupMember func(group string) bool
}

// ErrUDFInRowEval is returned when a UDF call reaches the row evaluator.
var ErrUDFInRowEval = errors.New("eval: UDF calls must be executed through the sandbox, not row evaluation")

// Eval computes an expression for one row.
func Eval(e plan.Expr, row RowFn, ctx *Context) (types.Value, error) {
	switch t := e.(type) {
	case *plan.Literal:
		return t.Value, nil

	case *plan.BoundRef:
		if row == nil {
			return types.Value{}, fmt.Errorf("eval: column reference %s without a row", t.String())
		}
		return row(t.Index), nil

	case *plan.Alias:
		return Eval(t.Child, row, ctx)

	case *plan.CurrentUser:
		if ctx == nil {
			return types.Value{}, errors.New("eval: CURRENT_USER without session context")
		}
		return types.String(ctx.User), nil

	case *plan.GroupMember:
		if ctx == nil {
			return types.Value{}, errors.New("eval: IS_ACCOUNT_GROUP_MEMBER without session context")
		}
		if ctx.IsGroupMember == nil {
			return types.Bool(false), nil
		}
		return types.Bool(ctx.IsGroupMember(t.Group)), nil

	case *plan.Binary:
		return evalBinary(t, row, ctx)

	case *plan.Unary:
		v, err := Eval(t.Child, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		if t.Op == plan.OpNot {
			if v.Null {
				return types.Null(types.KindBool), nil
			}
			return types.Bool(!v.AsBool()), nil
		}
		if v.Null {
			return types.Null(t.ResultKind), nil
		}
		switch v.Kind {
		case types.KindInt64:
			return types.Int64(-v.I), nil
		case types.KindFloat64:
			return types.Float64(-v.F), nil
		}
		return types.Value{}, fmt.Errorf("eval: cannot negate %s", v.Kind)

	case *plan.IsNull:
		v, err := Eval(t.Child, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		return types.Bool(v.Null != t.Negated), nil

	case *plan.InList:
		return evalInList(t, row, ctx)

	case *plan.Like:
		v, err := Eval(t.Child, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		pat, err := Eval(t.Pattern, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		if v.Null || pat.Null {
			return types.Null(types.KindBool), nil
		}
		m := likeMatch(v.S, pat.S)
		return types.Bool(m != t.Negated), nil

	case *plan.Case:
		for _, w := range t.Whens {
			c, err := Eval(w.Cond, row, ctx)
			if err != nil {
				return types.Value{}, err
			}
			if c.IsTrue() {
				v, err := Eval(w.Then, row, ctx)
				if err != nil {
					return types.Value{}, err
				}
				return v, nil
			}
		}
		if t.Else != nil {
			return Eval(t.Else, row, ctx)
		}
		return types.Null(t.ResultKind), nil

	case *plan.Cast:
		v, err := Eval(t.Child, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		out, err := v.Cast(t.To)
		if err != nil {
			return types.Value{}, fmt.Errorf("eval: %w", err)
		}
		return out, nil

	case *plan.ScalarFunc:
		return evalScalarFunc(t, row, ctx)

	case *plan.UDFCall:
		return types.Value{}, ErrUDFInRowEval

	case *plan.ColumnRef:
		return types.Value{}, fmt.Errorf("eval: unresolved column %s reached execution", t.String())
	}
	return types.Value{}, fmt.Errorf("eval: unsupported expression %T", e)
}

// EvalPredicate evaluates a boolean expression; NULL counts as false.
func EvalPredicate(e plan.Expr, row RowFn, ctx *Context) (bool, error) {
	v, err := Eval(e, row, ctx)
	if err != nil {
		return false, err
	}
	return v.IsTrue(), nil
}

func evalBinary(t *plan.Binary, row RowFn, ctx *Context) (types.Value, error) {
	// AND/OR use Kleene logic with short circuit.
	if t.Op == plan.OpAnd || t.Op == plan.OpOr {
		l, err := Eval(t.L, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		if t.Op == plan.OpAnd && !l.Null && !l.AsBool() {
			return types.Bool(false), nil
		}
		if t.Op == plan.OpOr && !l.Null && l.AsBool() {
			return types.Bool(true), nil
		}
		r, err := Eval(t.R, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		switch {
		case t.Op == plan.OpAnd:
			if !r.Null && !r.AsBool() {
				return types.Bool(false), nil
			}
			if l.Null || r.Null {
				return types.Null(types.KindBool), nil
			}
			return types.Bool(true), nil
		default: // OR
			if !r.Null && r.AsBool() {
				return types.Bool(true), nil
			}
			if l.Null || r.Null {
				return types.Null(types.KindBool), nil
			}
			return types.Bool(false), nil
		}
	}

	l, err := Eval(t.L, row, ctx)
	if err != nil {
		return types.Value{}, err
	}
	r, err := Eval(t.R, row, ctx)
	if err != nil {
		return types.Value{}, err
	}
	if l.Null || r.Null {
		kind := t.ResultKind
		if t.Op.IsComparison() {
			kind = types.KindBool
		}
		return types.Null(kind), nil
	}

	switch {
	case t.Op == plan.OpConcat:
		return types.String(l.AsString() + r.AsString()), nil
	case t.Op.IsArithmetic():
		return evalArith(t.Op, l, r, t.ResultKind)
	case t.Op.IsComparison():
		cmp, ok := l.Compare(r)
		if !ok {
			return types.Value{}, fmt.Errorf("eval: cannot compare %s and %s", l.Kind, r.Kind)
		}
		var b bool
		switch t.Op {
		case plan.OpEq:
			b = cmp == 0
		case plan.OpNeq:
			b = cmp != 0
		case plan.OpLt:
			b = cmp < 0
		case plan.OpLte:
			b = cmp <= 0
		case plan.OpGt:
			b = cmp > 0
		case plan.OpGte:
			b = cmp >= 0
		}
		return types.Bool(b), nil
	}
	return types.Value{}, fmt.Errorf("eval: unsupported operator %s", t.Op)
}

func evalArith(op plan.BinOp, l, r types.Value, resultKind types.Kind) (types.Value, error) {
	if resultKind == types.KindInt64 && l.Kind == types.KindInt64 && r.Kind == types.KindInt64 {
		switch op {
		case plan.OpAdd:
			return types.Int64(l.I + r.I), nil
		case plan.OpSub:
			return types.Int64(l.I - r.I), nil
		case plan.OpMul:
			return types.Int64(l.I * r.I), nil
		case plan.OpMod:
			if r.I == 0 {
				return types.Null(types.KindInt64), nil
			}
			return types.Int64(l.I % r.I), nil
		case plan.OpDiv:
			// analyzer always widens division; defensive fallback
			if r.I == 0 {
				return types.Null(types.KindInt64), nil
			}
			return types.Int64(l.I / r.I), nil
		}
	}
	lf, rf := l.AsFloat64(), r.AsFloat64()
	var f float64
	switch op {
	case plan.OpAdd:
		f = lf + rf
	case plan.OpSub:
		f = lf - rf
	case plan.OpMul:
		f = lf * rf
	case plan.OpDiv:
		if rf == 0 {
			return types.Null(types.KindFloat64), nil
		}
		f = lf / rf
	case plan.OpMod:
		if rf == 0 {
			return types.Null(types.KindFloat64), nil
		}
		f = math.Mod(lf, rf)
	}
	return types.Float64(f), nil
}

func evalInList(t *plan.InList, row RowFn, ctx *Context) (types.Value, error) {
	v, err := Eval(t.Child, row, ctx)
	if err != nil {
		return types.Value{}, err
	}
	if v.Null {
		return types.Null(types.KindBool), nil
	}
	sawNull := false
	for _, item := range t.List {
		iv, err := Eval(item, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		if iv.Null {
			sawNull = true
			continue
		}
		if cmp, ok := v.Compare(iv); ok && cmp == 0 {
			return types.Bool(!t.Negated), nil
		}
	}
	if sawNull {
		return types.Null(types.KindBool), nil
	}
	return types.Bool(t.Negated), nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	// Dynamic programming over pattern segments, iterative two-pointer with
	// backtracking on %.
	si, pi := 0, 0
	starP, starS := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			starP, starS = pi, si
			pi++
		case starP >= 0:
			starS++
			si = starS
			pi = starP + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func evalScalarFunc(t *plan.ScalarFunc, row RowFn, ctx *Context) (types.Value, error) {
	args := make([]types.Value, len(t.Args))
	for i, a := range t.Args {
		v, err := Eval(a, row, ctx)
		if err != nil {
			return types.Value{}, err
		}
		args[i] = v
	}
	name := strings.ToLower(t.Name)
	// coalesce/if/nullif handle NULL specially; all others are NULL-strict.
	switch name {
	case "coalesce":
		for _, a := range args {
			if !a.Null {
				return a, nil
			}
		}
		return types.Null(t.ResultKind), nil
	case "if":
		if args[0].IsTrue() {
			return args[1], nil
		}
		return args[2], nil
	case "nullif":
		if !args[0].Null && !args[1].Null {
			if cmp, ok := args[0].Compare(args[1]); ok && cmp == 0 {
				return types.Null(t.ResultKind), nil
			}
		}
		return args[0], nil
	}
	for _, a := range args {
		if a.Null {
			return types.Null(t.ResultKind), nil
		}
	}
	switch name {
	case "upper":
		return types.String(strings.ToUpper(args[0].AsString())), nil
	case "lower":
		return types.String(strings.ToLower(args[0].AsString())), nil
	case "length":
		return types.Int64(int64(len(args[0].AsString()))), nil
	case "trim":
		return types.String(strings.TrimSpace(args[0].AsString())), nil
	case "concat":
		var b strings.Builder
		for _, a := range args {
			b.WriteString(a.AsString())
		}
		return types.String(b.String()), nil
	case "substr", "substring":
		s := args[0].AsString()
		start := int(args[1].AsInt64()) - 1 // SQL is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) == 3 {
			end = start + int(args[2].AsInt64())
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		return types.String(s[start:end]), nil
	case "abs":
		if args[0].Kind == types.KindInt64 {
			if args[0].I < 0 {
				return types.Int64(-args[0].I), nil
			}
			return args[0], nil
		}
		return types.Float64(math.Abs(args[0].AsFloat64())), nil
	case "round":
		if len(args) == 2 {
			scale := math.Pow(10, float64(args[1].AsInt64()))
			return types.Float64(math.Round(args[0].AsFloat64()*scale) / scale), nil
		}
		return types.Float64(math.Round(args[0].AsFloat64())), nil
	case "floor":
		return types.Float64(math.Floor(args[0].AsFloat64())), nil
	case "ceil":
		return types.Float64(math.Ceil(args[0].AsFloat64())), nil
	case "sqrt":
		f := args[0].AsFloat64()
		if f < 0 {
			return types.Null(types.KindFloat64), nil
		}
		return types.Float64(math.Sqrt(f)), nil
	case "sha256":
		sum := sha256.Sum256([]byte(args[0].AsString()))
		return types.String(hex.EncodeToString(sum[:])), nil
	case "year", "month", "day":
		tm, err := toTime(args[0])
		if err != nil {
			return types.Value{}, err
		}
		switch name {
		case "year":
			return types.Int64(int64(tm.Year())), nil
		case "month":
			return types.Int64(int64(tm.Month())), nil
		default:
			return types.Int64(int64(tm.Day())), nil
		}
	case "greatest", "least":
		best := args[0]
		for _, a := range args[1:] {
			cmp, ok := a.Compare(best)
			if !ok {
				return types.Value{}, fmt.Errorf("eval: %s: incomparable arguments", name)
			}
			if (name == "greatest" && cmp > 0) || (name == "least" && cmp < 0) {
				best = a
			}
		}
		return best, nil
	}
	return types.Value{}, fmt.Errorf("eval: unknown scalar function %q", t.Name)
}

func toTime(v types.Value) (time.Time, error) {
	switch v.Kind {
	case types.KindDate:
		return time.Unix(v.I*86400, 0).UTC(), nil
	case types.KindTimestamp:
		return time.UnixMicro(v.I).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("eval: expected date/timestamp, got %s", v.Kind)
}

// IsConstant reports whether an expression has no row, session, or UDF
// dependence and can be folded at plan time.
func IsConstant(e plan.Expr) bool {
	constant := true
	plan.WalkExpr(e, func(x plan.Expr) bool {
		switch x.(type) {
		case *plan.BoundRef, *plan.ColumnRef, *plan.CurrentUser, *plan.GroupMember, *plan.UDFCall, *plan.AggFunc, *plan.Star:
			constant = false
			return false
		}
		return true
	})
	return constant
}

// Fold replaces every constant subexpression of e with its value, so an
// expression compares equal to its folded form (`amount > 1000*2` and
// `amount > 2000` fold alike). A constant that fails to evaluate stays as
// it is, leaving the error to execution.
func Fold(e plan.Expr) plan.Expr {
	return plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		switch x.(type) {
		case *plan.Literal, *plan.BoundRef, *plan.Alias:
			return x
		}
		if !IsConstant(x) {
			return x
		}
		v, err := Eval(x, nil, nil)
		if err != nil {
			return x
		}
		return plan.Lit(v)
	})
}
