package eval_test

import (
	"errors"
	"testing"
	"testing/quick"

	"lakeguard/internal/eval"
	"lakeguard/internal/eval/evaltest"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

func lit(v types.Value) plan.Expr { return plan.Lit(v) }

// evalConst evaluates a row-free expression through the reference and
// through its compiled program, which must agree.
func evalConst(t *testing.T, e plan.Expr) types.Value {
	t.Helper()
	ctx := &eval.Context{User: "alice"}
	v, err := evaltest.Eval(e, nil, ctx)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e.String(), err)
	}
	got, err := eval.CompileVecBound(e, nil, ctx).Run(nil, 1, nil)
	if err != nil {
		t.Fatalf("compiled %s: %v", e.String(), err)
	}
	if !sameValue(got.Value(0), asKind(v, got.Kind())) {
		t.Fatalf("%s: compiled %v, reference %v", e.String(), got.Value(0), v)
	}
	return v
}

// evalConstErr requires the reference and the compiled program to raise
// the same error on a row-free expression.
func evalConstErr(t *testing.T, e plan.Expr, ctx *eval.Context) error {
	t.Helper()
	_, want := evaltest.Eval(e, nil, ctx)
	_, got := eval.CompileVecBound(e, nil, ctx).Run(nil, 1, nil)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("%s: compiled raised %v, reference %v", e.String(), got, want)
	}
	return got
}

func bin(op plan.BinOp, l, r plan.Expr, rk types.Kind) plan.Expr {
	return &plan.Binary{Op: op, L: l, R: r, ResultKind: rk}
}

func TestArithmetic(t *testing.T) {
	if v := evalConst(t, bin(plan.OpAdd, lit(types.Int64(2)), lit(types.Int64(3)), types.KindInt64)); v.I != 5 {
		t.Errorf("2+3 = %v", v)
	}
	if v := evalConst(t, bin(plan.OpMul, lit(types.Float64(2.5)), lit(types.Int64(4)), types.KindFloat64)); v.F != 10 {
		t.Errorf("2.5*4 = %v", v)
	}
	// Division by zero yields NULL (SQL-safe).
	if v := evalConst(t, bin(plan.OpDiv, lit(types.Float64(1)), lit(types.Float64(0)), types.KindFloat64)); !v.Null {
		t.Errorf("1/0 = %v", v)
	}
	if v := evalConst(t, bin(plan.OpMod, lit(types.Int64(7)), lit(types.Int64(3)), types.KindInt64)); v.I != 1 {
		t.Errorf("7%%3 = %v", v)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := lit(types.Null(types.KindBool))
	tru := lit(types.Bool(true))
	fls := lit(types.Bool(false))
	cases := []struct {
		e    plan.Expr
		null bool
		want bool
	}{
		{bin(plan.OpAnd, null, fls, types.KindBool), false, false}, // NULL AND FALSE = FALSE
		{bin(plan.OpAnd, null, tru, types.KindBool), true, false},  // NULL AND TRUE = NULL
		{bin(plan.OpOr, null, tru, types.KindBool), false, true},   // NULL OR TRUE = TRUE
		{bin(plan.OpOr, null, fls, types.KindBool), true, false},   // NULL OR FALSE = NULL
		{bin(plan.OpEq, null, null, types.KindBool), true, false},  // NULL = NULL is NULL
	}
	for i, c := range cases {
		v := evalConst(t, c.e)
		if v.Null != c.null || (!v.Null && v.AsBool() != c.want) {
			t.Errorf("case %d: got %v", i, v)
		}
	}
	// NOT NULL = NULL
	v := evalConst(t, &plan.Unary{Op: plan.OpNot, Child: null})
	if !v.Null {
		t.Errorf("NOT NULL = %v", v)
	}
}

func TestShortCircuitSkipsErrors(t *testing.T) {
	// FALSE AND <error> must not evaluate the right side.
	bad := &plan.ScalarFunc{Name: "nosuch", ResultKind: types.KindBool}
	v := evalConst(t, bin(plan.OpAnd, lit(types.Bool(false)), bad, types.KindBool))
	if v.IsTrue() {
		t.Error("short circuit failed")
	}
}

func TestComparisonsCrossNumeric(t *testing.T) {
	v := evalConst(t, bin(plan.OpLt, lit(types.Int64(2)), lit(types.Float64(2.5)), types.KindBool))
	if !v.IsTrue() {
		t.Error("2 < 2.5 failed")
	}
}

func TestIsNullAndInList(t *testing.T) {
	v := evalConst(t, &plan.IsNull{Child: lit(types.Null(types.KindInt64))})
	if !v.IsTrue() {
		t.Error("IS NULL")
	}
	v2 := evalConst(t, &plan.IsNull{Child: lit(types.Int64(1)), Negated: true})
	if !v2.IsTrue() {
		t.Error("IS NOT NULL")
	}
	in := &plan.InList{Child: lit(types.Int64(2)), List: []plan.Expr{lit(types.Int64(1)), lit(types.Int64(2))}}
	if !evalConst(t, in).IsTrue() {
		t.Error("IN hit")
	}
	miss := &plan.InList{Child: lit(types.Int64(9)), List: []plan.Expr{lit(types.Int64(1))}}
	if evalConst(t, miss).IsTrue() {
		t.Error("IN miss")
	}
	// 9 IN (1, NULL) is NULL, so NOT IN is also NULL (not true).
	withNull := &plan.InList{Child: lit(types.Int64(9)), List: []plan.Expr{lit(types.Int64(1)), lit(types.Null(types.KindInt64))}, Negated: true}
	if v := evalConst(t, withNull); !v.Null {
		t.Errorf("NOT IN with NULL = %v", v)
	}
}

func TestLikeMatching(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "h_lo", false},
		{"hello", "hell", false},
		{"hello", "", false},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "m%iss%pi", true},
	}
	for _, c := range cases {
		e := &plan.Like{Child: lit(types.String(c.s)), Pattern: lit(types.String(c.pat))}
		if got := evalConst(t, e).IsTrue(); got != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

func TestLikePropertyPrefix(t *testing.T) {
	f := func(s string) bool {
		e := &plan.Like{Child: lit(types.String(s)), Pattern: lit(types.String("%"))}
		v, err := evaltest.Eval(e, nil, nil)
		got, cerr := eval.CompileVecBound(e, nil, nil).Run(nil, 1, nil)
		return err == nil && v.IsTrue() && cerr == nil && got.Value(0).IsTrue()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCaseEvaluation(t *testing.T) {
	c := &plan.Case{
		Whens: []plan.WhenClause{
			{Cond: lit(types.Bool(false)), Then: lit(types.String("no"))},
			{Cond: lit(types.Bool(true)), Then: lit(types.String("yes"))},
		},
		Else:       lit(types.String("else")),
		ResultKind: types.KindString,
	}
	if v := evalConst(t, c); v.S != "yes" {
		t.Errorf("case = %v", v)
	}
	noMatch := &plan.Case{
		Whens:      []plan.WhenClause{{Cond: lit(types.Bool(false)), Then: lit(types.String("no"))}},
		ResultKind: types.KindString,
	}
	if v := evalConst(t, noMatch); !v.Null {
		t.Errorf("case without else = %v", v)
	}
}

func TestSessionFunctions(t *testing.T) {
	ctx := &eval.Context{User: "alice", IsGroupMember: func(g string) bool { return g == "ds" }}
	run := func(e plan.Expr) types.Value {
		t.Helper()
		v, err := evaltest.Eval(e, nil, ctx)
		got, cerr := eval.CompileVecBound(e, nil, ctx).Run(nil, 1, nil)
		if err != nil || cerr != nil || !sameValue(got.Value(0), v) {
			t.Fatalf("%s: compiled %v (%v), reference %v (%v)", e, got, cerr, v, err)
		}
		return v
	}
	if v := run(&plan.CurrentUser{}); v.S != "alice" {
		t.Errorf("CURRENT_USER = %v", v)
	}
	if !run(&plan.GroupMember{Group: "ds"}).IsTrue() {
		t.Error("group member")
	}
	if run(&plan.GroupMember{Group: "hr"}).IsTrue() {
		t.Error("non-member")
	}
	evalConstErr(t, &plan.CurrentUser{}, nil)
	evalConstErr(t, &plan.GroupMember{Group: "ds"}, nil)
}

func TestScalarFunctions(t *testing.T) {
	sf := func(name string, rk types.Kind, args ...plan.Expr) plan.Expr {
		return &plan.ScalarFunc{Name: name, Args: args, ResultKind: rk}
	}
	cases := []struct {
		e    plan.Expr
		want string
	}{
		{sf("upper", types.KindString, lit(types.String("hi"))), "HI"},
		{sf("lower", types.KindString, lit(types.String("HI"))), "hi"},
		{sf("length", types.KindInt64, lit(types.String("abc"))), "3"},
		{sf("trim", types.KindString, lit(types.String("  x "))), "x"},
		{sf("concat", types.KindString, lit(types.String("a")), lit(types.String("b")), lit(types.String("c"))), "abc"},
		{sf("substr", types.KindString, lit(types.String("hello")), lit(types.Int64(2)), lit(types.Int64(3))), "ell"},
		{sf("abs", types.KindInt64, lit(types.Int64(-4))), "4"},
		{sf("round", types.KindFloat64, lit(types.Float64(2.567)), lit(types.Int64(1))), "2.6"},
		{sf("floor", types.KindFloat64, lit(types.Float64(2.9))), "2"},
		{sf("ceil", types.KindFloat64, lit(types.Float64(2.1))), "3"},
		{sf("coalesce", types.KindInt64, lit(types.Null(types.KindInt64)), lit(types.Int64(7))), "7"},
		{sf("nullif", types.KindInt64, lit(types.Int64(3)), lit(types.Int64(4))), "3"},
		{sf("if", types.KindString, lit(types.Bool(true)), lit(types.String("y")), lit(types.String("n"))), "y"},
		{sf("greatest", types.KindInt64, lit(types.Int64(3)), lit(types.Int64(9)), lit(types.Int64(5))), "9"},
		{sf("least", types.KindInt64, lit(types.Int64(3)), lit(types.Int64(9))), "3"},
	}
	for _, c := range cases {
		if got := evalConst(t, c.e).String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.e.String(), got, c.want)
		}
	}
	// nullif equal -> NULL
	if v := evalConst(t, sf("nullif", types.KindInt64, lit(types.Int64(3)), lit(types.Int64(3)))); !v.Null {
		t.Error("nullif equal should be NULL")
	}
	// year/month/day
	d, _ := types.DateFromString("2024-12-01")
	if v := evalConst(t, sf("year", types.KindInt64, lit(d))); v.I != 2024 {
		t.Errorf("year = %v", v)
	}
	if v := evalConst(t, sf("month", types.KindInt64, lit(d))); v.I != 12 {
		t.Errorf("month = %v", v)
	}
	// NULL strictness.
	if v := evalConst(t, sf("upper", types.KindString, lit(types.Null(types.KindString)))); !v.Null {
		t.Error("upper(NULL) should be NULL")
	}
	// sha256 hex length.
	if v := evalConst(t, sf("sha256", types.KindString, lit(types.String("x")))); len(v.S) != 64 {
		t.Error("sha256 length")
	}
}

func TestRowReference(t *testing.T) {
	row := func(i int) types.Value { return types.Int64(int64(i * 100)) }
	ref := &plan.BoundRef{Index: 2, Name: "x", Kind: types.KindInt64}
	v, err := evaltest.Eval(ref, row, nil)
	if err != nil || v.I != 200 {
		t.Errorf("ref = %v, %v", v, err)
	}
	if _, err := evaltest.Eval(ref, nil, nil); err == nil {
		t.Error("ref without row should fail")
	}
}

func TestUDFRejected(t *testing.T) {
	u := &plan.UDFCall{Name: "f", ResultKind: types.KindInt64}
	if err := evalConstErr(t, u, nil); !errors.Is(err, eval.ErrUDFInRowEval) {
		t.Errorf("err = %v", err)
	}
}

func TestIsConstant(t *testing.T) {
	if !eval.IsConstant(bin(plan.OpAdd, lit(types.Int64(1)), lit(types.Int64(2)), types.KindInt64)) {
		t.Error("literal arith should be constant")
	}
	if eval.IsConstant(&plan.BoundRef{Index: 0, Kind: types.KindInt64}) {
		t.Error("ref is not constant")
	}
	if eval.IsConstant(&plan.CurrentUser{}) {
		t.Error("CURRENT_USER is not constant")
	}
	if eval.IsConstant(&plan.UDFCall{}) {
		t.Error("UDF is not constant")
	}
}

func TestCastEval(t *testing.T) {
	v := evalConst(t, &plan.Cast{Child: lit(types.String("2024-12-01")), To: types.KindDate})
	if v.Kind != types.KindDate || v.String() != "2024-12-01" {
		t.Errorf("cast = %v", v)
	}
	evalConstErr(t, &plan.Cast{Child: lit(types.String("zzz")), To: types.KindInt64}, nil)
}

func TestEvalPredicateNullIsFalse(t *testing.T) {
	ok, err := evaltest.EvalPredicate(lit(types.Null(types.KindBool)), nil, nil)
	if err != nil || ok {
		t.Errorf("NULL predicate = %v, %v", ok, err)
	}
}
