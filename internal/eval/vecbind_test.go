package eval_test

import (
	"math/rand"
	"testing"

	"lakeguard/internal/eval"
	"lakeguard/internal/eval/evaltest"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Identity-bound kernels against the row interpreter: CURRENT_USER and
// IS_ACCOUNT_GROUP_MEMBER fold to the statement's constants, decided AND/OR
// arms drop out, and a CASE on identity compiles to its chosen branch. Every
// check runs for a group member and a non-member.

const (
	memberUser    = "alice@corp.com"
	nonMemberUser = "bob@corp.com"
)

func identityContexts() map[string]*eval.Context {
	return map[string]*eval.Context{
		"member":     {User: memberUser, IsGroupMember: func(g string) bool { return g == "analysts" }},
		"non-member": {User: nonMemberUser, IsGroupMember: func(g string) bool { return g == "auditors" }},
		"no-groups":  {User: memberUser},
	}
}

var (
	refI1 = &plan.BoundRef{Index: 0, Name: "i1", Kind: types.KindInt64}
	refI2 = &plan.BoundRef{Index: 1, Name: "i2", Kind: types.KindInt64}
	refF1 = &plan.BoundRef{Index: 2, Name: "f1", Kind: types.KindFloat64}
	refS1 = &plan.BoundRef{Index: 4, Name: "s1", Kind: types.KindString}
)

func boolOp(op plan.BinOp, l, r plan.Expr) plan.Expr {
	return &plan.Binary{Op: op, L: l, R: r, ResultKind: types.KindBool}
}

// randIdentity draws a boolean expression over the vecFixture columns whose
// leaves include identity checks, typed NULL booleans and CASE chains on
// identity, mixed with the row-dependent predicates of randBool.
func randIdentity(r *rand.Rand, depth int) plan.Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(7) {
		case 0:
			return &plan.GroupMember{Group: []string{"analysts", "auditors"}[r.Intn(2)]}
		case 1:
			op := []plan.BinOp{plan.OpEq, plan.OpNeq}[r.Intn(2)]
			return boolOp(op, &plan.CurrentUser{}, plan.Lit(types.String(memberUser)))
		case 2:
			return boolOp(plan.OpEq, refS1, &plan.CurrentUser{}) // row-dependent
		case 3:
			return plan.Lit(types.Null(types.KindBool))
		case 4:
			return plan.Lit(types.Bool(r.Intn(2) == 0))
		default:
			return randBool(r, 1)
		}
	}
	switch r.Intn(6) {
	case 0:
		return boolOp(plan.OpAnd, randIdentity(r, depth-1), randIdentity(r, depth-1))
	case 1:
		return boolOp(plan.OpOr, randIdentity(r, depth-1), randIdentity(r, depth-1))
	case 2:
		return &plan.Unary{Op: plan.OpNot, Child: randIdentity(r, depth-1), ResultKind: types.KindBool}
	case 3:
		return randCase(r, depth, types.KindBool)
	case 4:
		return boolOp(plan.OpGt, randCase(r, depth, types.KindInt64), plan.Lit(types.Int64(int64(r.Intn(5)-2))))
	}
	return randBool(r, depth)
}

// randCase draws a CASE chain whose conditions are identity checks (now and
// then a row-dependent one, which must not compile) and whose branches are
// columns, constants or NULL.
func randCase(r *rand.Rand, depth int, kind types.Kind) plan.Expr {
	branch := func() plan.Expr {
		switch kind {
		case types.KindBool:
			return randIdentity(r, depth-1)
		case types.KindString:
			return []plan.Expr{refS1, plan.Lit(types.String("<redacted>")), plan.Lit(types.Null(types.KindString))}[r.Intn(3)]
		}
		return []plan.Expr{refI1, refI2, plan.Lit(types.Int64(0)), plan.Lit(types.Null(types.KindInt64))}[r.Intn(4)]
	}
	c := &plan.Case{ResultKind: kind}
	for w := 0; w < 1+r.Intn(3); w++ {
		cond := plan.Expr(&plan.GroupMember{Group: []string{"analysts", "auditors"}[r.Intn(2)]})
		switch r.Intn(5) {
		case 0:
			cond = boolOp(plan.OpEq, &plan.CurrentUser{}, plan.Lit(types.String(nonMemberUser)))
		case 1:
			if r.Intn(3) == 0 {
				cond = randBool(r, 1) // row-dependent: the CASE falls back
			}
		}
		c.Whens = append(c.Whens, plan.WhenClause{Cond: cond, Then: branch()})
	}
	if r.Intn(3) > 0 {
		c.Else = branch()
	}
	return c
}

func TestVecIdentityBindingMatchesRowEval(t *testing.T) {
	const n = 257
	cols, kinds := vecFixture(n)
	sel := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		sel = append(sel, (i*7)%n)
	}
	r := rand.New(rand.NewSource(27))
	decided, open := 0, 0
	for trial := 0; trial < 800; trial++ {
		var e plan.Expr
		switch trial % 4 {
		case 0:
			e = randCase(r, 2, types.KindInt64)
		case 1:
			e = randCase(r, 2, types.KindString)
		default:
			e = randIdentity(r, 3)
		}
		for _, ctx := range identityContexts() {
			prog := eval.CompileVecBound(e, kinds, ctx)
			if eval.RootShape(prog) == "const" {
				decided++
			} else {
				open++
			}
			checkAgainstEval(t, e, prog, ctx, cols, n, nil)
			checkAgainstEval(t, e, prog, ctx, cols, n, sel)
			checkAgainstEval(t, e, prog, ctx, cols, n, []int{})
		}
	}
	if decided < 200 || open < 200 {
		t.Fatalf("%d programs decided by their identity, %d left to the rows: the generator no longer exercises binding", decided, open)
	}
}

// The benchmark's row filter and email mask compile once an identity is
// bound, to the branch each principal gets. Without one they compile too,
// and raise the identity function's error on any row that reaches it.
func TestVecBindsGovernedScanPolicies(t *testing.T) {
	kinds := []types.Kind{types.KindString, types.KindString}
	region := &plan.BoundRef{Index: 0, Name: "region", Kind: types.KindString}
	email := &plan.BoundRef{Index: 1, Name: "email", Kind: types.KindString}
	rowFilter := boolOp(plan.OpOr, boolOp(plan.OpEq, region, plan.Lit(types.String("US"))), &plan.GroupMember{Group: "analysts"})
	mask := &plan.Case{
		Whens:      []plan.WhenClause{{Cond: &plan.GroupMember{Group: "analysts"}, Then: email}},
		Else:       plan.Lit(types.String("<redacted>")),
		ResultKind: types.KindString,
	}
	eu := []*types.Column{
		types.NewStringColumn(types.KindString, []string{"EU"}, nil),
		types.NewStringColumn(types.KindString, []string{"a@x.com"}, nil),
	}
	ctxs := identityContexts()
	for _, tc := range []struct {
		e     plan.Expr
		ctx   string
		shape string
	}{
		{rowFilter, "member", "const"},
		{rowFilter, "non-member", "cmp"},
		{mask, "member", "ref"},
		{mask, "non-member", "const"},
	} {
		if got := eval.RootShape(eval.CompileVecBound(tc.e, kinds, ctxs[tc.ctx])); got != tc.shape {
			t.Errorf("%s (%s) compiled to %s, want %s", tc.e, tc.ctx, got, tc.shape)
		}
		prog, ok := eval.CompileVec(tc.e, kinds)
		if !ok {
			t.Fatalf("%s did not compile without an identity", tc.e)
		}
		if _, err := prog.Run(eu, 1, nil); err == nil || err.Error() != "eval: IS_ACCOUNT_GROUP_MEMBER without session context" {
			t.Errorf("%s unbound over an EU row: %v", tc.e, err)
		}
	}
}

// Select over selections of every shape — all rows, a subset, a non-nil
// empty one, a single row — keeps exactly the rows the reference finds
// TRUE. An empty selection must select nothing, however the AND/OR tree is
// shaped.
func TestVecSelectMatchesRun(t *testing.T) {
	const n = 131
	cols, kinds := vecFixture(n)
	sels := [][]int{nil, {}, {5}, {0, 2, 4, 8, 16, 32, 64, 128}}
	var desc []int
	for i := n - 1; i >= 0; i -= 2 {
		desc = append(desc, i)
	}
	sels = append(sels, desc)
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 600; trial++ {
		e := randBool(r, 4)
		ctx := (*eval.Context)(nil)
		if trial%2 == 1 {
			e = randIdentity(r, 4)
			ctx = identityContexts()[[]string{"member", "non-member"}[trial%4/2]]
		}
		prog := eval.CompileVecBound(e, kinds, ctx)
		for _, sel := range sels {
			checkAgainstEval(t, e, prog, ctx, cols, n, sel)
			if sel != nil && len(sel) == 0 {
				if got, err := prog.Select(cols, n, sel, nil); len(got) != 0 || err != nil {
					t.Fatalf("%s selected %v (%v) from an empty selection", e, got, err)
				}
			}
		}
	}
}

var (
	refS2 = &plan.BoundRef{Index: 6, Name: "s2", Kind: types.KindString}
	refD1 = &plan.BoundRef{Index: 7, Name: "d1", Kind: types.KindDate}
	// refI1AsDouble reads the BIGINT column i1 under the analyzed kind
	// DOUBLE: the values keep the column's kind.
	refI1AsDouble           = &plan.BoundRef{Index: 0, Name: "i1", Kind: types.KindFloat64}
	untypedNull   plan.Expr = plan.Lit(types.Null(types.KindNull))
)

func castTo(x plan.Expr, k types.Kind) plan.Expr { return &plan.Cast{Child: x, To: k} }

func call(name string, k types.Kind, args ...plan.Expr) plan.Expr {
	return &plan.ScalarFunc{Name: name, Args: args, ResultKind: k}
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

// randInt, randStr and randAny draw from every node the analyzer emits,
// typed as it types them: CAST (one that raises where s2 is 'x', and
// constant ones), IN, LIKE, every scalar function, CASE on row values,
// incomparable comparisons, the identity functions, UDF calls, the untyped
// NULL literal and a column reference whose analyzed kind is not its
// column's. The functions that return one of their arguments take the
// kind of the first typed one, as the analyzer types them, and mix it with
// arguments of any kind (randMixed).
func randInt(r *rand.Rand, depth int) plan.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(8) {
		case 6:
			// Above 2^53, where a BIGINT is not a DOUBLE.
			return &plan.Binary{Op: plan.OpAdd, L: refI1, R: plan.Lit(types.Int64(1<<53 + 1)), ResultKind: types.KindInt64}
		case 0:
			return refI1
		case 1:
			return refI2
		case 2:
			return castTo(refS2, types.KindInt64)
		case 3:
			return castTo(plan.Lit(types.String(pick(r, "12", "-3", "x"))), types.KindInt64)
		case 4:
			return call(pick(r, "year", "month", "day"), types.KindInt64, refD1)
		case 5:
			return call("length", types.KindInt64, randStr(r, 0))
		}
		return plan.Lit(types.Int64(int64(r.Intn(5) - 2)))
	}
	a, b := randInt(r, depth-1), randInt(r, depth-1)
	switch r.Intn(9) {
	case 0:
		return &plan.Binary{Op: pick(r, plan.OpAdd, plan.OpSub, plan.OpMul, plan.OpMod), L: a, R: b, ResultKind: types.KindInt64}
	case 1:
		return call("abs", types.KindInt64, a)
	case 2:
		if r.Intn(2) == 0 {
			return call("coalesce", types.KindInt64, untypedNull, a, randMixed(r, depth-1))
		}
		return call("coalesce", types.KindInt64, a, randMixed(r, depth-1), b)
	case 3:
		return call("if", types.KindInt64, randAny(r, depth-1), a, randMixed(r, depth-1))
	case 4:
		return call("nullif", types.KindInt64, a, randMixed(r, depth-1))
	case 5:
		return call(pick(r, "greatest", "least"), types.KindInt64, a, randMixed(r, depth-1))
	case 6:
		c := &plan.Case{Whens: []plan.WhenClause{{Cond: randAny(r, depth-1), Then: a}}, ResultKind: types.KindInt64}
		if r.Intn(2) == 0 {
			c.Else = b
		}
		return c
	case 7:
		return call("nosuch", types.KindInt64, a) // unknown: NULL on NULL arguments, raises otherwise
	}
	return &plan.Unary{Op: plan.OpNeg, Child: a, ResultKind: types.KindInt64}
}

func randStr(r *rand.Rand, depth int) plan.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(6) {
		case 0:
			return refS1
		case 1:
			return refS2
		case 2:
			return castTo(randInt(r, 0), types.KindString)
		case 3:
			if r.Intn(3) == 0 {
				return &plan.CurrentUser{}
			}
		}
		return plan.Lit(types.String(pick(r, "", "a", "zed")))
	}
	a, b := randStr(r, depth-1), randStr(r, depth-1)
	switch r.Intn(8) {
	case 0:
		return call(pick(r, "upper", "lower", "trim", "sha256"), types.KindString, a)
	case 1:
		return call("concat", types.KindString, a, b)
	case 2:
		return &plan.Binary{Op: plan.OpConcat, L: a, R: b, ResultKind: types.KindString}
	case 3:
		return call("substr", types.KindString, a, plan.Lit(types.Int64(int64(r.Intn(4)))), randInt(r, 0))
	case 4:
		return call("coalesce", types.KindString, a, randMixed(r, depth-1))
	case 5:
		return call("if", types.KindString, randAny(r, depth-1), a, randMixed(r, depth-1))
	case 6:
		return &plan.Case{Whens: []plan.WhenClause{{Cond: randAny(r, depth-1), Then: a}}, Else: b, ResultKind: types.KindString}
	}
	return call(pick(r, "greatest", "least"), types.KindString, a, randMixed(r, depth-1))
}

// randMixed draws an argument of any kind: BIGINT, DOUBLE, STRING or the
// untyped NULL.
func randMixed(r *rand.Rand, depth int) plan.Expr {
	switch r.Intn(4) {
	case 0:
		return randInt(r, depth)
	case 1:
		return randNum(r, depth)
	case 2:
		return randStr(r, depth)
	}
	return untypedNull
}

func randAny(r *rand.Rand, depth int) plan.Expr {
	cmp := func() plan.BinOp { return pick(r, plan.OpEq, plan.OpNeq, plan.OpLt, plan.OpLte, plan.OpGt, plan.OpGte) }
	if depth <= 0 || r.Intn(4) == 0 {
		switch r.Intn(10) {
		case 0:
			return &plan.Like{Child: randStr(r, 0), Pattern: plan.Lit(types.String(pick(r, "a%", "%e%", "_", "%"))), Negated: r.Intn(2) == 0}
		case 1:
			list := []plan.Expr{plan.Lit(types.Int64(1)), pick[plan.Expr](r, randInt(r, 0), untypedNull, plan.Lit(types.Int64(-2)))}
			return &plan.InList{Child: randInt(r, 0), List: list, Negated: r.Intn(2) == 0}
		case 2:
			return boolOp(cmp(), refS1, refI1) // incomparable: raises where neither is NULL
		case 3:
			return boolOp(cmp(), randInt(r, 1), randInt(r, 1))
		case 4:
			return boolOp(cmp(), randInt(r, 0), untypedNull)
		case 5:
			return boolOp(cmp(), refI1AsDouble, plan.Lit(types.Float64(float64(r.Intn(7))-3.5)))
		case 6:
			return randIdentity(r, 0)
		case 7:
			return boolOp(cmp(), randStr(r, 1), randStr(r, 0))
		case 8:
			if r.Intn(4) == 0 {
				return &plan.UDFCall{Name: "main.default.f", Owner: "mallory@corp.com", Args: []plan.Expr{refS1}, ResultKind: types.KindBool}
			}
		}
		return randBool(r, 1)
	}
	switch r.Intn(6) {
	case 0:
		return boolOp(plan.OpAnd, randAny(r, depth-1), randAny(r, depth-1))
	case 1:
		return boolOp(plan.OpOr, randAny(r, depth-1), randAny(r, depth-1))
	case 2:
		return &plan.Unary{Op: plan.OpNot, Child: randAny(r, depth-1), ResultKind: types.KindBool}
	case 3:
		return &plan.Case{Whens: []plan.WhenClause{{Cond: randAny(r, depth-1), Then: randAny(r, depth-1)}}, Else: randAny(r, depth-1), ResultKind: types.KindBool}
	case 4:
		return &plan.IsNull{Child: pick(r, randInt(r, depth-1), randStr(r, depth-1)), Negated: r.Intn(2) == 0}
	}
	return boolOp(cmp(), randInt(r, depth-1), randInt(r, depth-1))
}

// checkFold requires eval.Fold of every constant subtree of e to fold to
// the reference's value, and to leave a subtree whose evaluation raises as
// it is.
func checkFold(t *testing.T, e plan.Expr) {
	t.Helper()
	plan.WalkExpr(e, func(x plan.Expr) bool {
		if _, alias := x.(*plan.Alias); alias || !eval.IsConstant(x) {
			return true
		}
		want, err := evaltest.Eval(x, nil, nil)
		lit, folded := eval.Fold(x).(*plan.Literal)
		switch {
		case err != nil && folded:
			t.Fatalf("Fold(%s) = %s, but the reference raises %v", x, lit, err)
		case err == nil && !folded:
			t.Fatalf("Fold(%s) did not fold; the reference gives %v", x, want)
		case err == nil && !sameValue(lit.Value, asKind(want, x.Type())):
			t.Fatalf("Fold(%s) = %v, the reference gives %v", x, lit.Value, want)
		}
		return true
	})
}

// FuzzVecSelect draws an expression from every node the analyzer emits,
// compiled with an identity bound or not, and a selection from the mask
// bytes — absent, empty, or any subset — and requires Run and Select to
// raise exactly when the reference raises on a selected row, with its text,
// and otherwise to equal it; and Fold of every constant subtree to equal
// the reference's value. shape picks one of the short-circuit cases instead
// of a random expression.
func FuzzVecSelect(f *testing.F) {
	all := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	f.Add(int64(1), []byte{}, uint8(0), uint8(0))
	f.Add(int64(2), []byte{0}, uint8(1), uint8(0))
	f.Add(int64(3), []byte{0xff, 0x0f}, uint8(2), uint8(0))
	f.Add(int64(24), []byte{0xaa, 0x55, 0x01}, uint8(3), uint8(0))
	f.Add(int64(0), all, uint8(0), uint8(1))
	f.Add(int64(0), all, uint8(1), uint8(2))
	f.Add(int64(0), []byte{0, 0xfb}, uint8(2), uint8(3)) // rows 8-15 but 10, where v is 0
	f.Add(int64(0), all, uint8(3), uint8(3))
	const n = 64
	cols, kinds := vecFixture(n)
	ctxs := []*eval.Context{nil, identityContexts()["member"], identityContexts()["non-member"], identityContexts()["no-groups"]}
	gt0 := func(x plan.Expr) plan.Expr { return boolOp(plan.OpGt, x, plan.Lit(types.Int64(0))) }
	shortCircuits := []plan.Expr{
		// v = 0 OR CAST(s AS BIGINT) > 0
		boolOp(plan.OpOr, boolOp(plan.OpEq, refI1, plan.Lit(types.Int64(0))), gt0(castTo(refS2, types.KindInt64))),
		// CASE WHEN v > 0 THEN CAST(s AS BIGINT) ELSE 0 END
		&plan.Case{Whens: []plan.WhenClause{{Cond: gt0(refI1), Then: castTo(refS2, types.KindInt64)}}, Else: plan.Lit(types.Int64(0)), ResultKind: types.KindInt64},
		// v IN (1, CAST(s AS BIGINT))
		&plan.InList{Child: refI1, List: []plan.Expr{plan.Lit(types.Int64(1)), castTo(refS2, types.KindInt64)}},
	}
	f.Fuzz(func(t *testing.T, seed int64, mask []byte, who, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		ctx := ctxs[int(who)%len(ctxs)]
		var e plan.Expr
		switch k := int(shape) % (len(shortCircuits) + 1); {
		case k > 0:
			e = shortCircuits[k-1]
		case seed%8 == 0:
			e = randInt(r, 3)
		case seed%8 == 1:
			e = randStr(r, 3)
		case seed%4 == 2:
			e = randIdentity(r, 4)
		default:
			e = randAny(r, 4)
		}
		var sel []int
		if mask != nil {
			sel = []int{}
			for i := 0; i < n && i/8 < len(mask); i++ {
				if mask[i/8]&(1<<(i%8)) != 0 {
					sel = append(sel, i)
				}
			}
		}
		checkAgainstEval(t, e, eval.CompileVecBound(e, kinds, ctx), ctx, cols, n, sel)
		checkFold(t, e)
	})
}
