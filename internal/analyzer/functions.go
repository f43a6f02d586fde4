package analyzer

import (
	"fmt"
	"strings"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// builtinSig describes one scalar builtin: argument arity bounds and a
// result-kind rule given resolved argument kinds.
type builtinSig struct {
	minArgs, maxArgs int
	result           func(args []plan.Expr) (types.Kind, error)
}

func fixedKind(k types.Kind) func([]plan.Expr) (types.Kind, error) {
	return func([]plan.Expr) (types.Kind, error) { return k, nil }
}

func sameAsArg(i int) func([]plan.Expr) (types.Kind, error) {
	return func(args []plan.Expr) (types.Kind, error) { return args[i].Type(), nil }
}

// firstTyped types a function that returns one of its arguments from index
// i on (COALESCE, GREATEST, LEAST, IF's branches): the kind of the first of
// them that has one. The function casts the value it returns to that kind.
func firstTyped(i int) func([]plan.Expr) (types.Kind, error) {
	return func(args []plan.Expr) (types.Kind, error) {
		for _, a := range args[i:] {
			if k := a.Type(); k != types.KindNull {
				return k, nil
			}
		}
		return types.KindNull, nil
	}
}

func numericResult(args []plan.Expr) (types.Kind, error) {
	k := args[0].Type()
	if !k.Numeric() {
		return 0, fmt.Errorf("expected a numeric argument, got %s", k)
	}
	return k, nil
}

// stringArg0 requires the first argument to be a string and returns kind k.
func stringArg0(k types.Kind) func([]plan.Expr) (types.Kind, error) {
	return func(args []plan.Expr) (types.Kind, error) {
		if at := args[0].Type(); at != types.KindString && at != types.KindNull {
			return 0, fmt.Errorf("expected a string argument, got %s", at)
		}
		return k, nil
	}
}

// scalarBuiltins is the engine's scalar function library.
var scalarBuiltins = map[string]builtinSig{
	"upper":     {1, 1, stringArg0(types.KindString)},
	"lower":     {1, 1, stringArg0(types.KindString)},
	"length":    {1, 1, stringArg0(types.KindInt64)},
	"trim":      {1, 1, stringArg0(types.KindString)},
	"concat":    {1, 16, fixedKind(types.KindString)},
	"substr":    {2, 3, stringArg0(types.KindString)},
	"substring": {2, 3, stringArg0(types.KindString)},
	"abs":       {1, 1, numericResult},
	"round":     {1, 2, fixedKind(types.KindFloat64)},
	"floor":     {1, 1, fixedKind(types.KindFloat64)},
	"ceil":      {1, 1, fixedKind(types.KindFloat64)},
	"sqrt":      {1, 1, fixedKind(types.KindFloat64)},
	"coalesce":  {1, 16, firstTyped(0)},
	"nullif":    {2, 2, sameAsArg(0)},
	"sha256":    {1, 1, stringArg0(types.KindString)},
	"if":        {3, 3, firstTyped(1)},
	"year":      {1, 1, fixedKind(types.KindInt64)},
	"month":     {1, 1, fixedKind(types.KindInt64)},
	"day":       {1, 1, fixedKind(types.KindInt64)},
	"greatest":  {2, 16, firstTyped(0)},
	"least":     {2, 16, firstTyped(0)},
}

// aggKinds maps aggregate function names to a result-kind rule.
func aggResultKind(name string, arg plan.Expr) (types.Kind, error) {
	switch name {
	case "count":
		return types.KindInt64, nil
	case "sum":
		if arg == nil {
			return 0, fmt.Errorf("SUM requires an argument")
		}
		k := arg.Type()
		if !k.Numeric() {
			return 0, fmt.Errorf("SUM requires a numeric argument, got %s", k)
		}
		return k, nil
	case "avg":
		if arg == nil || !arg.Type().Numeric() {
			return 0, fmt.Errorf("AVG requires a numeric argument")
		}
		return types.KindFloat64, nil
	case "min", "max":
		if arg == nil {
			return 0, fmt.Errorf("%s requires an argument", strings.ToUpper(name))
		}
		if !arg.Type().Orderable() {
			return 0, fmt.Errorf("%s requires an orderable argument, got %s", strings.ToUpper(name), arg.Type())
		}
		return arg.Type(), nil
	}
	return 0, fmt.Errorf("unknown aggregate %q", name)
}

// IsAggregateName reports whether name is an aggregate function.
func IsAggregateName(name string) bool {
	switch strings.ToLower(name) {
	case "sum", "count", "min", "max", "avg":
		return true
	}
	return false
}
