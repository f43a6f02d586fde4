package eval_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lakeguard/internal/eval"
	"lakeguard/internal/eval/evaltest"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// vecFixture builds the input columns the randomized cross-check runs over:
// integers (with zeros for division), floats (with NULLs, NaN, infinities),
// strings, booleans, strings that cast to BIGINT except where i1 is 0, and
// dates.
func vecFixture(n int) ([]*types.Column, []types.Kind) {
	i1 := types.NewBuilder(types.KindInt64, n)
	i2 := types.NewBuilder(types.KindInt64, n)
	f1 := types.NewBuilder(types.KindFloat64, n)
	f2 := types.NewBuilder(types.KindFloat64, n)
	s1 := types.NewBuilder(types.KindString, n)
	b1 := types.NewBuilder(types.KindBool, n)
	s2 := types.NewBuilder(types.KindString, n)
	d1 := types.NewBuilder(types.KindDate, n)
	words := []string{"", "a", "ab", "zed", "zed", "kilo"}
	for i := 0; i < n; i++ {
		i1.Append(types.Int64(int64(i%21) - 10)) // includes zeros and negatives
		if i%7 == 0 {
			i2.AppendNull()
		} else {
			i2.Append(types.Int64(int64(i*13)%17 - 8))
		}
		switch {
		case i%11 == 0:
			f1.AppendNull()
		case i%23 == 0:
			f1.Append(types.Float64(math.NaN()))
		case i%29 == 0:
			f1.Append(types.Float64(math.Inf(1)))
		case i%31 == 0:
			f1.Append(types.Float64(math.Inf(-1)))
		default:
			f1.Append(types.Float64(float64(i%19)*0.75 - 4))
		}
		f2.Append(types.Float64(float64(i%13) - 6)) // includes exact zeros
		if i%5 == 0 {
			s1.AppendNull()
		} else {
			s1.Append(types.String(words[i%len(words)]))
		}
		if i%9 == 0 {
			b1.AppendNull()
		} else {
			b1.Append(types.Bool(i%2 == 0))
		}
		switch {
		case i%21 == 10: // exactly where i1 is 0
			s2.Append(types.String("x"))
		case i%6 == 5:
			s2.AppendNull()
		default:
			s2.Append(types.String(fmt.Sprint(i%7 - 3)))
		}
		if i%8 == 3 {
			d1.AppendNull()
		} else {
			d1.Append(types.Date(int64(i*37 - 500)))
		}
	}
	cols := []*types.Column{i1.Build(), i2.Build(), f1.Build(), f2.Build(), s1.Build(), b1.Build(), s2.Build(), d1.Build()}
	kinds := []types.Kind{types.KindInt64, types.KindInt64, types.KindFloat64, types.KindFloat64, types.KindString, types.KindBool, types.KindString, types.KindDate}
	return cols, kinds
}

// randNum builds a random numeric expression, setting ResultKind the way the
// analyzer does: division always widens to DOUBLE, other arithmetic widens
// only when an operand is DOUBLE.
func randNum(r *rand.Rand, depth int) plan.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return &plan.BoundRef{Index: 0, Name: "i1", Kind: types.KindInt64}
		case 1:
			return &plan.BoundRef{Index: 1, Name: "i2", Kind: types.KindInt64}
		case 2:
			return &plan.BoundRef{Index: 2, Name: "f1", Kind: types.KindFloat64}
		case 3:
			return &plan.BoundRef{Index: 3, Name: "f2", Kind: types.KindFloat64}
		case 4:
			return plan.Lit(types.Int64(int64(r.Intn(7)) - 3))
		default:
			return plan.Lit(types.Float64(float64(r.Intn(9)) - 4.5))
		}
	}
	l, rr := randNum(r, depth-1), randNum(r, depth-1)
	op := []plan.BinOp{plan.OpAdd, plan.OpSub, plan.OpMul, plan.OpDiv, plan.OpMod}[r.Intn(5)]
	rk := types.KindInt64
	if op == plan.OpDiv || l.Type() == types.KindFloat64 || rr.Type() == types.KindFloat64 {
		rk = types.KindFloat64
	}
	var e plan.Expr = &plan.Binary{Op: op, L: l, R: rr, ResultKind: rk}
	if r.Intn(6) == 0 {
		e = &plan.Unary{Op: plan.OpNeg, Child: e, ResultKind: e.Type()}
	}
	return e
}

func randCmp(r *rand.Rand, depth int) plan.Expr {
	op := []plan.BinOp{plan.OpEq, plan.OpNeq, plan.OpLt, plan.OpLte, plan.OpGt, plan.OpGte}[r.Intn(6)]
	if r.Intn(4) == 0 { // string comparison
		l := plan.Expr(&plan.BoundRef{Index: 4, Name: "s1", Kind: types.KindString})
		rr := plan.Expr(plan.Lit(types.String([]string{"a", "zed", ""}[r.Intn(3)])))
		if r.Intn(2) == 0 {
			l, rr = rr, l
		}
		return &plan.Binary{Op: op, L: l, R: rr, ResultKind: types.KindBool}
	}
	return &plan.Binary{Op: op, L: randNum(r, depth-1), R: randNum(r, depth-1), ResultKind: types.KindBool}
}

func randBool(r *rand.Rand, depth int) plan.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return &plan.BoundRef{Index: 5, Name: "b1", Kind: types.KindBool}
		case 1:
			return plan.Lit(types.Bool(r.Intn(2) == 0))
		case 2:
			return &plan.IsNull{Child: randNum(r, 1), Negated: r.Intn(2) == 0}
		default:
			return randCmp(r, 1)
		}
	}
	switch r.Intn(4) {
	case 0:
		return &plan.Binary{Op: plan.OpAnd, L: randBool(r, depth-1), R: randBool(r, depth-1), ResultKind: types.KindBool}
	case 1:
		return &plan.Binary{Op: plan.OpOr, L: randBool(r, depth-1), R: randBool(r, depth-1), ResultKind: types.KindBool}
	case 2:
		return &plan.Unary{Op: plan.OpNot, Child: randBool(r, depth-1), ResultKind: types.KindBool}
	default:
		return randCmp(r, depth)
	}
}

func sameValue(got, want types.Value) bool {
	if got.Null != want.Null {
		return false
	}
	if got.Null {
		return true
	}
	if got.Kind != want.Kind {
		return false
	}
	if got.Kind == types.KindFloat64 {
		return got.F == want.F || (math.IsNaN(got.F) && math.IsNaN(want.F))
	}
	return got.Equal(want)
}

// asKind casts a reference value to e's analyzed kind k, as a program
// returns it; with k NULL, or a value that does not cast, it stays as it is,
// so the comparison is strict.
func asKind(v types.Value, k types.Kind) types.Value {
	if v.Null || v.Kind == k || k == types.KindNull {
		return v
	}
	if c, err := v.Cast(k); err == nil {
		return c
	}
	return v
}

func rowsOf(n int, sel []int) int {
	if sel != nil {
		return len(sel)
	}
	return n
}

func rowAt(sel []int, j int) int {
	if sel != nil {
		return sel[j]
	}
	return j
}

// checkAgainstEval runs a compiled program over sel (nil = all n rows) and
// requires what the reference gives row by row, in selection order: when a
// row raises, Run and Select both fail with the first such row's error
// text; otherwise Run returns every value (cast to e's analyzed kind) and
// Select exactly the rows the reference finds TRUE, appended after what out
// already held.
func checkAgainstEval(t *testing.T, e plan.Expr, prog *eval.VecProg, ctx *eval.Context, cols []*types.Column, n int, sel []int) {
	t.Helper()
	m := rowsOf(n, sel)
	want := make([]types.Value, m)
	var wantErr error
	for j := 0; j < m && wantErr == nil; j++ {
		i := rowAt(sel, j)
		want[j], wantErr = evaltest.Eval(e, func(c int) types.Value { return cols[c].Value(i) }, ctx)
	}
	out, err := prog.Run(cols, n, sel)
	got, serr := prog.Select(cols, n, sel, []int{-7})
	if wantErr != nil {
		if err == nil || serr == nil || err.Error() != wantErr.Error() || serr.Error() != wantErr.Error() {
			t.Fatalf("%s over sel %v: Run raised %v, Select %v; the reference raised %v", e, sel, err, serr, wantErr)
		}
		return
	}
	if err != nil || serr != nil {
		t.Fatalf("%s over sel %v: Run raised %v, Select %v; the reference raised nothing", e, sel, err, serr)
	}
	if out.Len() != m {
		t.Fatalf("%s: Run returned %d rows, want %d", e, out.Len(), m)
	}
	wantSel := []int{-7}
	for j, w := range want {
		if w.IsTrue() {
			wantSel = append(wantSel, rowAt(sel, j))
		}
		if g := out.Value(j); !sameValue(g, asKind(w, e.Type())) {
			t.Fatalf("%s at row %d: vec=%v row=%v", e, rowAt(sel, j), g, w)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(wantSel) {
		t.Fatalf("%s over sel %v: Select %v, reference TRUE rows %v", e, sel, got, wantSel)
	}
}

// TestVecMatchesRowEval cross-checks the columnar kernels against the row
// interpreter on randomized expressions over columns with NULLs, zeros
// (division/modulo), NaN, infinities, and mixed numeric kinds — both over the
// full batch and through a selection vector.
func TestVecMatchesRowEval(t *testing.T) {
	const n = 257
	cols, kinds := vecFixture(n)
	r := rand.New(rand.NewSource(7))

	sel := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		sel = append(sel, (i*7)%n)
	}
	for trial := 0; trial < 600; trial++ {
		var e plan.Expr
		if trial%2 == 0 {
			e = randBool(r, 3)
		} else {
			e = randNum(r, 3)
		}
		prog, ok := eval.CompileVec(e, kinds)
		if !ok {
			t.Fatalf("%s did not compile", e)
		}
		checkAgainstEval(t, e, prog, nil, cols, n, nil)
		checkAgainstEval(t, e, prog, nil, cols, n, sel)
	}
}

// Every node compiles, including those no typed kernel covers, and raises
// exactly where the reference does: LIKE, CAST, IN, CASE on row values,
// scalar functions, identity functions with no session bound, UDF calls,
// unresolved columns, incomparable comparisons, the untyped NULL literal
// and column references whose analyzed kind is not the column's. A
// constant subtree folds, one that raises included.
func TestVecCompilesEveryNode(t *testing.T) {
	const n = 64
	cols, kinds := vecFixture(n)
	i1, s1, s2 := &plan.BoundRef{Index: 0, Name: "i1", Kind: types.KindInt64}, refS1, &plan.BoundRef{Index: 6, Name: "s2", Kind: types.KindString}
	toInt := func(x plan.Expr) plan.Expr { return &plan.Cast{Child: x, To: types.KindInt64} }
	big := &plan.Binary{Op: plan.OpAdd, L: i1, R: plan.Lit(types.Int64(1<<53 + 1)), ResultKind: types.KindInt64}
	for _, e := range []plan.Expr{
		&plan.Like{Child: s1, Pattern: plan.Lit(types.String("a%"))},
		&plan.Like{Child: s1, Pattern: plan.Lit(types.String("%e%")), Negated: true},
		&plan.CurrentUser{},
		&plan.GroupMember{Group: "analysts"},
		&plan.Binary{Op: plan.OpAdd, L: plan.Lit(types.Int64(1)), R: plan.Lit(types.Int64(2)), ResultKind: types.KindInt64},
		boolOp(plan.OpGt, toInt(s2), plan.Lit(types.Int64(0))),
		boolOp(plan.OpOr, boolOp(plan.OpEq, i1, plan.Lit(types.Int64(0))), boolOp(plan.OpGt, toInt(s2), plan.Lit(types.Int64(0)))),
		boolOp(plan.OpOr, boolOp(plan.OpGt, i1, plan.Lit(types.Int64(0))), boolOp(plan.OpGt, toInt(plan.Lit(types.String("x"))), plan.Lit(types.Int64(0)))),
		&plan.InList{Child: i1, List: []plan.Expr{plan.Lit(types.Int64(1)), toInt(s2), plan.Lit(types.Null(types.KindNull))}},
		&plan.Case{Whens: []plan.WhenClause{{Cond: boolOp(plan.OpGt, i1, plan.Lit(types.Int64(0))), Then: toInt(s2)}}, Else: plan.Lit(types.Int64(0)), ResultKind: types.KindInt64},
		&plan.ScalarFunc{Name: "coalesce", Args: []plan.Expr{plan.Lit(types.Null(types.KindNull)), refI2, i1}, ResultKind: types.KindInt64},
		// Functions that return an argument keep their analyzed kind when
		// the arguments mix kinds: 2^53+1 stays exact beside a DOUBLE, and a
		// STRING cast fails only on the rows whose value it is.
		&plan.ScalarFunc{Name: "coalesce", Args: []plan.Expr{big, plan.Lit(types.Float64(0.5))}, ResultKind: types.KindInt64},
		boolOp(plan.OpEq, &plan.ScalarFunc{Name: "coalesce", Args: []plan.Expr{big, refF1}, ResultKind: types.KindInt64}, plan.Lit(types.Int64(1<<53+1))),
		&plan.ScalarFunc{Name: "greatest", Args: []plan.Expr{big, refF1}, ResultKind: types.KindInt64},
		&plan.ScalarFunc{Name: "if", Args: []plan.Expr{boolOp(plan.OpGt, i1, plan.Lit(types.Int64(0))), big, refF1}, ResultKind: types.KindInt64},
		&plan.ScalarFunc{Name: "nullif", Args: []plan.Expr{big, refF1}, ResultKind: types.KindInt64},
		&plan.ScalarFunc{Name: "coalesce", Args: []plan.Expr{refF1, s2}, ResultKind: types.KindFloat64},
		boolOp(plan.OpEq, &plan.ScalarFunc{Name: "coalesce", Args: []plan.Expr{s1, i1}, ResultKind: types.KindString}, plan.Lit(types.String("x"))),
		&plan.ScalarFunc{Name: "year", Args: []plan.Expr{s1}, ResultKind: types.KindInt64},
		&plan.ScalarFunc{Name: "nosuch", Args: []plan.Expr{s1}, ResultKind: types.KindString},
		&plan.UDFCall{Name: "main.default.f", Args: []plan.Expr{s1}, ResultKind: types.KindBool},
		&plan.ColumnRef{Name: "s1"},
		boolOp(plan.OpEq, s1, i1),
		boolOp(plan.OpEq, i1, plan.Lit(types.Null(types.KindNull))),
		plan.Lit(types.Null(types.KindNull)),
		boolOp(plan.OpGt, &plan.BoundRef{Index: 0, Name: "i1", Kind: types.KindFloat64}, plan.Lit(types.Float64(2.5))),
	} {
		for _, ctx := range []*eval.Context{nil, identityContexts()["member"]} {
			prog, ok := eval.CompileVec(e, kinds)
			if ctx != nil {
				prog = eval.CompileVecBound(e, kinds, ctx)
			}
			if !ok || prog == nil {
				t.Fatalf("%s did not compile", e)
			}
			checkAgainstEval(t, e, prog, ctx, cols, n, nil)
			checkAgainstEval(t, e, prog, ctx, cols, n, []int{11, 32, 53})
			checkAgainstEval(t, e, prog, ctx, cols, n, []int{})
		}
	}
	// A column reference outside the input raises, once a row reaches it.
	oob := eval.CompileVecBound(&plan.BoundRef{Index: 9, Name: "oob", Kind: types.KindInt64}, kinds, nil)
	if _, err := oob.Run(cols, n, nil); err == nil {
		t.Error("an out-of-range column reference evaluated")
	}
	if _, err := oob.Run(cols, n, []int{}); err != nil {
		t.Errorf("an out-of-range column reference raised on no rows: %v", err)
	}
}

func benchPredicateInputs(n int) ([]*types.Column, []types.Kind, plan.Expr) {
	b := types.NewBuilder(types.KindInt64, n)
	for i := 0; i < n; i++ {
		b.Append(types.Int64(int64((i * 37) % 1000)))
	}
	cols := []*types.Column{b.Build()}
	kinds := []types.Kind{types.KindInt64}
	pred := &plan.Binary{
		Op:         plan.OpGt,
		L:          &plan.BoundRef{Index: 0, Name: "v", Kind: types.KindInt64},
		R:          plan.Lit(types.Int64(500)),
		ResultKind: types.KindBool,
	}
	return cols, kinds, pred
}

// BenchmarkFilterRowInterp evaluates a simple comparison predicate one row at
// a time through the interpreter — the pre-vectorization filter path.
func BenchmarkFilterRowInterp(b *testing.B) {
	const n = 8192
	cols, _, pred := benchPredicateInputs(n)
	b.ReportAllocs()
	kept := 0
	for i := 0; i < b.N; i++ {
		kept = 0
		for r := 0; r < n; r++ {
			ok, err := evaltest.EvalPredicate(pred, func(ci int) types.Value { return cols[ci].Value(r) }, nil)
			if err != nil {
				b.Fatal(err)
			}
			if ok {
				kept++
			}
		}
	}
	if kept == 0 {
		b.Fatal("predicate kept nothing")
	}
}

// BenchmarkFilterVecKernel evaluates the same predicate through the compiled
// columnar kernel.
func BenchmarkFilterVecKernel(b *testing.B) {
	const n = 8192
	cols, kinds, pred := benchPredicateInputs(n)
	prog, ok := eval.CompileVec(pred, kinds)
	if !ok {
		b.Fatal("predicate did not compile")
	}
	b.ReportAllocs()
	kept := 0
	for i := 0; i < b.N; i++ {
		kept = 0
		out, err := prog.Run(cols, n, nil)
		if err != nil {
			b.Fatal(err)
		}
		bits := out.Int64s()
		nulls := out.NullMask()
		for r := 0; r < n; r++ {
			if bits[r] == 1 && (nulls == nil || !nulls[r]) {
				kept++
			}
		}
	}
	if kept == 0 {
		b.Fatal("predicate kept nothing")
	}
}
