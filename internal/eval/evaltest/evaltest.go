// Package evaltest is the row-at-a-time reference interpreter the compiled
// programs of package eval are checked against. It walks one expression
// over one row with SQL three-valued logic and short circuits, applying the
// per-row rules eval exports (scalar functions, LIKE, IN membership) and
// Value.Cast, and restating nothing else of the compiler: so a compiled
// program and Eval agree only when both are right. Tests alone import it;
// the lint import boundary keeps it out of every production package.
package evaltest

import (
	"errors"
	"fmt"
	"math"

	"lakeguard/internal/eval"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// RowFn supplies the value of input column i for the current row.
type RowFn func(i int) types.Value

// Eval computes an expression for one row.
func Eval(e plan.Expr, row RowFn, ctx *eval.Context) (types.Value, error) {
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
		return eval.Like(v, pat, t.Negated), nil

	case *plan.Case:
		for _, w := range t.Whens {
			c, err := Eval(w.Cond, row, ctx)
			if err != nil {
				return types.Value{}, err
			}
			if c.IsTrue() {
				return Eval(w.Then, row, ctx)
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
		args := make([]types.Value, len(t.Args))
		for i, a := range t.Args {
			v, err := Eval(a, row, ctx)
			if err != nil {
				return types.Value{}, err
			}
			args[i] = v
		}
		return eval.Scalar(t.Name, args, t.ResultKind)

	case *plan.UDFCall:
		return types.Value{}, eval.ErrUDFInRowEval

	case *plan.ColumnRef:
		return types.Value{}, fmt.Errorf("eval: unresolved column %s reached execution", t.String())
	}
	return types.Value{}, fmt.Errorf("eval: unsupported expression %T", e)
}

// EvalPredicate evaluates a boolean expression; NULL counts as false.
func EvalPredicate(e plan.Expr, row RowFn, ctx *eval.Context) (bool, error) {
	v, err := Eval(e, row, ctx)
	if err != nil {
		return false, err
	}
	return v.IsTrue(), nil
}

func evalBinary(t *plan.Binary, row RowFn, ctx *eval.Context) (types.Value, error) {
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
		return evalArith(t.Op, l, r, t.ResultKind), nil
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

func evalArith(op plan.BinOp, l, r types.Value, resultKind types.Kind) types.Value {
	if resultKind == types.KindInt64 && l.Kind == types.KindInt64 && r.Kind == types.KindInt64 {
		switch op {
		case plan.OpAdd:
			return types.Int64(l.I + r.I)
		case plan.OpSub:
			return types.Int64(l.I - r.I)
		case plan.OpMul:
			return types.Int64(l.I * r.I)
		case plan.OpMod:
			if r.I == 0 {
				return types.Null(types.KindInt64)
			}
			return types.Int64(l.I % r.I)
		case plan.OpDiv:
			// analyzer always widens division; defensive fallback
			if r.I == 0 {
				return types.Null(types.KindInt64)
			}
			return types.Int64(l.I / r.I)
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
			return types.Null(types.KindFloat64)
		}
		f = lf / rf
	case plan.OpMod:
		if rf == 0 {
			return types.Null(types.KindFloat64)
		}
		f = math.Mod(lf, rf)
	}
	return types.Float64(f)
}

func evalInList(t *plan.InList, row RowFn, ctx *eval.Context) (types.Value, error) {
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
		if eval.Matches(v, iv) {
			return types.Bool(!t.Negated), nil
		}
	}
	if sawNull {
		return types.Null(types.KindBool), nil
	}
	return types.Bool(t.Negated), nil
}
