// Package eval evaluates resolved plan expressions with SQL three-valued
// logic. Every expression compiles to a columnar program (CompileVecBound,
// in vec.go); the physical operators, DML and the optimizer's constant
// folding all run those programs, and nothing in production evaluates an
// expression any other way. The per-row rules the programs apply to boxed
// values — scalar functions, LIKE, IN membership — live here, so the
// row-at-a-time reference interpreter in evaltest that tests check the
// programs against shares them instead of restating them. UDF calls are
// never evaluated here — they cross the sandbox boundary in batches — so one
// that reaches a program raises ErrUDFInRowEval; the executor lifts them
// beforehand.
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

// Context carries session state dynamic expressions need.
type Context struct {
	// User is the session user (CURRENT_USER()).
	User string
	// IsGroupMember answers IS_ACCOUNT_GROUP_MEMBER checks; nil means no
	// group memberships.
	IsGroupMember func(group string) bool
}

// ErrUDFInRowEval is raised when a UDF call reaches expression evaluation.
var ErrUDFInRowEval = errors.New("eval: UDF calls must be executed through the sandbox, not row evaluation")

// Like is `v [NOT] LIKE pattern` for one row: NULL when either side is
// NULL, otherwise a match of % and _ wildcards.
func Like(v, pattern types.Value, negated bool) types.Value {
	if v.Null || pattern.Null {
		return types.Null(types.KindBool)
	}
	return types.Bool(likeMatch(v.S, pattern.S) != negated)
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

// Matches reports whether the non-NULL values v and item are equal as IN
// decides membership: Compare orders them equal. Incomparable kinds never
// match.
func Matches(v, item types.Value) bool {
	cmp, ok := v.Compare(item)
	return ok && cmp == 0
}

// Scalar applies the scalar function name to one row's argument values.
// COALESCE, IF and NULLIF handle NULL themselves; every other function is
// NULL-strict. kind is the function's analyzed result kind, which a NULL
// result takes. The functions that return one of their arguments (COALESCE,
// IF, NULLIF, GREATEST, LEAST) cast it to kind, so their value has the kind
// the analyzer gave them whatever kinds their arguments mix: a BIGINT stays
// exact beside a DOUBLE argument, and a cast that fails raises only on the
// rows whose chosen value it is, with the text of the cast to a result
// column's kind.
func Scalar(name string, args []types.Value, kind types.Kind) (types.Value, error) {
	fn := strings.ToLower(name)
	switch fn {
	case "coalesce", "if", "nullif", "greatest", "least":
		v, err := chosenArg(fn, args)
		if err != nil {
			return types.Value{}, err
		}
		return v.Cast(kind)
	}
	for _, a := range args {
		if a.Null {
			return types.Null(kind), nil
		}
	}
	switch fn {
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
		switch fn {
		case "year":
			return types.Int64(int64(tm.Year())), nil
		case "month":
			return types.Int64(int64(tm.Month())), nil
		default:
			return types.Int64(int64(tm.Day())), nil
		}
	}
	return types.Value{}, fmt.Errorf("eval: unknown scalar function %q", name)
}

// chosenArg is the argument COALESCE, IF, NULLIF, GREATEST or LEAST returns,
// as it is; a NULL one stands for a NULL result.
func chosenArg(fn string, args []types.Value) (types.Value, error) {
	switch fn {
	case "coalesce":
		for _, a := range args {
			if !a.Null {
				return a, nil
			}
		}
		return types.Null(types.KindNull), nil
	case "if":
		if args[0].IsTrue() {
			return args[1], nil
		}
		return args[2], nil
	case "nullif":
		if !args[0].Null && !args[1].Null && Matches(args[0], args[1]) {
			return types.Null(types.KindNull), nil
		}
		return args[0], nil
	}
	for _, a := range args {
		if a.Null {
			return a, nil
		}
	}
	best := args[0]
	for _, a := range args[1:] {
		cmp, ok := a.Compare(best)
		if !ok {
			return types.Value{}, fmt.Errorf("eval: %s: incomparable arguments", fn)
		}
		if (fn == "greatest" && cmp > 0) || (fn == "least" && cmp < 0) {
			best = a
		}
	}
	return best, nil
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
// `amount > 2000` fold alike). A constant folds by running its compiled
// program over one row; one that raises stays as it is, leaving the error to
// execution.
func Fold(e plan.Expr) plan.Expr {
	return plan.TransformExpr(e, func(x plan.Expr) plan.Expr {
		switch x.(type) {
		case *plan.Literal, *plan.BoundRef, *plan.Alias:
			return x
		}
		if !IsConstant(x) {
			return x
		}
		if k, ok := CompileVecBound(x, nil, nil).root.(*constNode); ok {
			return plan.Lit(k.v)
		}
		return x
	})
}
