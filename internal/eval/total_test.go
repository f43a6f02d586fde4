package eval_test

import (
	"math"
	"math/rand"
	"testing"

	"lakeguard/internal/eval"
	"lakeguard/internal/eval/evaltest"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Total is the contract the optimizer's copy below a policy barrier and the
// sentinel's total-below-barrier invariant rest on: an accepted expression
// must never raise, from the row interpreter or from a compiled kernel,
// whatever the row holds.

func TestTotalWhitelist(t *testing.T) {
	i := &plan.BoundRef{Index: 0, Name: "i", Kind: types.KindInt64}
	f := &plan.BoundRef{Index: 1, Name: "f", Kind: types.KindFloat64}
	s := &plan.BoundRef{Index: 2, Name: "s", Kind: types.KindString}
	cmp := func(op plan.BinOp, l, r plan.Expr) plan.Expr { return boolOp(op, l, r) }
	throwing := &plan.Cast{Child: plan.Lit(types.String("boom")), To: types.KindInt64}
	accept := []plan.Expr{
		i,
		plan.Lit(types.Null(types.KindNull)),
		cmp(plan.OpEq, i, plan.Lit(types.Int64(7))),
		cmp(plan.OpLt, i, f), // numeric kinds widen in Compare
		cmp(plan.OpGte, s, plan.Lit(types.String(""))),
		cmp(plan.OpEq, s, plan.Lit(types.Null(types.KindNull))),
		cmp(plan.OpEq, &plan.CurrentUser{}, s),
		cmp(plan.OpOr, &plan.GroupMember{Group: "admins"}, cmp(plan.OpNeq, i, plan.Lit(types.Int64(0)))),
		&plan.Unary{Op: plan.OpNot, Child: &plan.IsNull{Child: f}},
		&plan.InList{Child: i, List: []plan.Expr{plan.Lit(types.Int64(1)), plan.Lit(types.String("x"))}},
		plan.As(cmp(plan.OpGt, f, plan.Lit(types.Float64(math.Inf(1)))), "p"),
	}
	for _, e := range accept {
		if !eval.Total(e) {
			t.Errorf("Total(%s) = false, want true", e)
		}
	}
	reject := []plan.Expr{
		throwing,
		cmp(plan.OpEq, throwing, plan.Lit(types.Int64(1))),
		cmp(plan.OpEq, i, s), // Compare fails on STRING vs BIGINT
		cmp(plan.OpGt, &plan.Binary{Op: plan.OpDiv, L: f, R: i, ResultKind: types.KindFloat64}, plan.Lit(types.Float64(1))),
		&plan.Unary{Op: plan.OpNeg, Child: i, ResultKind: types.KindInt64},
		&plan.Case{Whens: []plan.WhenClause{{Cond: cmp(plan.OpEq, i, plan.Lit(types.Int64(200))), Then: throwing}},
			Else: plan.Lit(types.Int64(1)), ResultKind: types.KindInt64},
		&plan.Like{Child: s, Pattern: plan.Lit(types.String("a%"))},
		&plan.ScalarFunc{Name: "upper", Args: []plan.Expr{s}, ResultKind: types.KindString},
		&plan.UDFCall{Name: "main.default.exfil", Owner: "mallory@corp.com", Args: []plan.Expr{s}, ResultKind: types.KindBool},
		&plan.InList{Child: i, List: []plan.Expr{i}},
		&plan.ColumnRef{Name: "i"},
		cmp(plan.OpAnd, plan.Lit(types.Bool(true)), throwing),
	}
	for _, e := range reject {
		if eval.Total(e) {
			t.Errorf("Total(%s) = true, want false", e)
		}
	}
}

// Extreme values every kind of column and literal is drawn from.
var (
	totalInts    = []int64{0, 1, -1, math.MinInt64, math.MaxInt64}
	totalFloats  = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64}
	totalStrings = []string{"", "a", "zed", "\x00", "alice@corp.com"}
	totalKinds   = []types.Kind{types.KindInt64, types.KindFloat64, types.KindString, types.KindBool, types.KindDate, types.KindNull}
)

// totalValue picks a value of kind k (NULL one time in six) from b.
func totalValue(k types.Kind, b byte) types.Value {
	if k == types.KindNull || b%6 == 5 {
		return types.Null(k)
	}
	switch k {
	case types.KindInt64:
		return types.Int64(totalInts[int(b)%len(totalInts)])
	case types.KindFloat64:
		return types.Float64(totalFloats[int(b)%len(totalFloats)])
	case types.KindString:
		return types.String(totalStrings[int(b)%len(totalStrings)])
	case types.KindBool:
		return types.Bool(b%2 == 0)
	}
	return types.Value{Kind: types.KindDate, I: totalInts[int(b)%len(totalInts)]}
}

// totalBatch builds one column per totalKinds entry, n rows, filled from data.
func totalBatch(data []byte, n int) []*types.Column {
	cols := make([]*types.Column, len(totalKinds))
	for c, k := range totalKinds {
		b := types.NewBuilder(k, n)
		for r := 0; r < n; r++ {
			var x byte
			if len(data) > 0 {
				x = data[(r*len(totalKinds)+c)%len(data)] + byte(r)
			}
			b.Append(totalValue(k, x))
		}
		cols[c] = b.Build()
	}
	return cols
}

// randTotalOperand draws a column or literal of kind k (identity for STRING,
// an untyped NULL now and then).
func randTotalOperand(r *rand.Rand, k types.Kind) plan.Expr {
	for c, ck := range totalKinds {
		if ck == k && r.Intn(2) == 0 {
			return &plan.BoundRef{Index: c, Name: "c" + k.String(), Kind: k}
		}
	}
	switch {
	case r.Intn(8) == 0:
		return plan.Lit(types.Null(types.KindNull))
	case k == types.KindString && r.Intn(3) == 0:
		return &plan.CurrentUser{}
	}
	return plan.Lit(totalValue(k, byte(r.Intn(256))))
}

// randTotal draws a BOOLEAN expression from the whitelist only.
func randTotal(r *rand.Rand, depth int) plan.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return &plan.GroupMember{Group: []string{"analysts", "auditors"}[r.Intn(2)]}
		case 1:
			return &plan.IsNull{Child: randTotalOperand(r, totalKinds[r.Intn(len(totalKinds))]), Negated: r.Intn(2) == 0}
		case 2:
			in := &plan.InList{Child: randTotalOperand(r, totalKinds[r.Intn(len(totalKinds))]), Negated: r.Intn(2) == 0}
			for j := 0; j < 1+r.Intn(3); j++ {
				in.List = append(in.List, plan.Lit(totalValue(totalKinds[r.Intn(len(totalKinds))], byte(r.Intn(256)))))
			}
			return in
		case 3:
			return randTotalOperand(r, types.KindBool)
		}
		op := []plan.BinOp{plan.OpEq, plan.OpNeq, plan.OpLt, plan.OpLte, plan.OpGt, plan.OpGte}[r.Intn(6)]
		lk := totalKinds[r.Intn(len(totalKinds)-1)]
		rk := lk
		if lk.Numeric() && r.Intn(3) == 0 {
			rk = types.KindInt64 + types.KindFloat64 - lk // the other numeric kind
		}
		return boolOp(op, randTotalOperand(r, lk), randTotalOperand(r, rk))
	}
	switch r.Intn(4) {
	case 0:
		return boolOp(plan.OpAnd, randTotal(r, depth-1), randTotal(r, depth-1))
	case 1:
		return boolOp(plan.OpOr, randTotal(r, depth-1), randTotal(r, depth-1))
	case 2:
		return &plan.Unary{Op: plan.OpNot, Child: randTotal(r, depth-1), ResultKind: types.KindBool}
	}
	return boolOp(plan.OpEq, randTotal(r, depth-1), randTotal(r, depth-1))
}

// FuzzTotalNeverErrors draws whitelisted expressions and batches of extreme
// values (NULL, NaN, ±Inf, MinInt64/MaxInt64, empty strings) and requires
// Total to accept the expression, Eval to succeed on every row, and every
// compiled program — identity-free and identity-bound — to agree with Eval.
func FuzzTotalNeverErrors(f *testing.F) {
	f.Add(int64(1), []byte{}, uint8(0))
	f.Add(int64(2), []byte{5, 5, 5, 5, 5, 5}, uint8(1))
	f.Add(int64(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add(int64(30), []byte{0xff, 0x80, 0x7f, 0x01}, uint8(0))
	const n = 24
	ctxs := []*eval.Context{identityContexts()["member"], identityContexts()["non-member"], identityContexts()["no-groups"]}
	f.Fuzz(func(t *testing.T, seed int64, data []byte, who uint8) {
		r := rand.New(rand.NewSource(seed))
		e := randTotal(r, 4)
		if !eval.Total(e) {
			t.Fatalf("Total rejects whitelisted %s", e)
		}
		cols := totalBatch(data, n)
		ctx := ctxs[int(who)%len(ctxs)]
		for i := 0; i < n; i++ {
			if _, err := evaltest.Eval(e, func(c int) types.Value { return cols[c].Value(i) }, ctx); err != nil {
				t.Fatalf("Eval(%s) at row %d: %v", e, i, err)
			}
		}
		for _, bind := range []*eval.Context{nil, ctx} {
			checkAgainstEval(t, e, eval.CompileVecBound(e, totalKinds, bind), bind, cols, n, nil)
		}
	})
}
