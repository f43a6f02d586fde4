package eval

import (
	"math/rand"
	"testing"

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

func identityContexts() map[string]*Context {
	return map[string]*Context{
		"member":     {User: memberUser, IsGroupMember: func(g string) bool { return g == "analysts" }},
		"non-member": {User: nonMemberUser, IsGroupMember: func(g string) bool { return g == "auditors" }},
		"no-groups":  {User: memberUser},
	}
}

var (
	refI1 = &plan.BoundRef{Index: 0, Name: "i1", Kind: types.KindInt64}
	refI2 = &plan.BoundRef{Index: 1, Name: "i2", Kind: types.KindInt64}
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

// checkAgainstEval compares a compiled program with Eval over all rows and
// through sel, and — for BOOLEAN programs — Select with Run.
func checkAgainstEval(t *testing.T, e plan.Expr, prog *VecProg, ctx *Context, cols []*types.Column, n int, sel []int) {
	t.Helper()
	out := prog.Run(cols, n, sel)
	for j := 0; j < rowsOf(n, sel); j++ {
		i := rowAt(sel, j)
		want, err := Eval(e, func(c int) types.Value { return cols[c].Value(i) }, ctx)
		if err != nil {
			t.Fatalf("row eval of %s at row %d: %v", e, i, err)
		}
		if e.Type() != types.KindNull && !want.Null && want.Kind != e.Type() {
			if want, err = want.Cast(e.Type()); err != nil {
				t.Fatal(err)
			}
		}
		if got := out.Value(j); !sameValue(got, want) {
			t.Fatalf("%s (user %s) at row %d: vec=%v row=%v", e, ctx.User, i, got, want)
		}
	}
	if prog.Kind() == types.KindBool {
		checkSelect(t, e, prog, cols, n, sel)
	}
}

// checkSelect requires Select to return exactly the rows Run marks TRUE, in
// selection order, appended after whatever out already held.
func checkSelect(t *testing.T, e plan.Expr, prog *VecProg, cols []*types.Column, n int, sel []int) {
	t.Helper()
	run := prog.Run(cols, n, sel)
	want := []int{-7}
	for j := 0; j < rowsOf(n, sel); j++ {
		if run.Value(j).IsTrue() {
			want = append(want, rowAt(sel, j))
		}
	}
	got := prog.Select(cols, n, sel, []int{-7})
	if len(got) != len(want) {
		t.Fatalf("%s over sel %v: Select kept %d rows, Run marks %d TRUE", e, sel, len(got)-1, len(want)-1)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: Select %v, Run %v", e, got, want)
		}
	}
}

func TestVecIdentityBindingMatchesRowEval(t *testing.T) {
	const n = 257
	cols, kinds := vecFixture(n)
	sel := make([]int, 0, n/3)
	for i := 0; i < n; i += 3 {
		sel = append(sel, (i*7)%n)
	}
	r := rand.New(rand.NewSource(27))
	compiled, rejected := 0, 0
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
		for name, ctx := range identityContexts() {
			prog, why := CompileVecBound(e, kinds, ctx)
			if prog == nil {
				if why == "" {
					t.Fatalf("%s (%s): rejected without naming a node", e, name)
				}
				rejected++
				continue
			}
			compiled++
			checkAgainstEval(t, e, prog, ctx, cols, n, nil)
			checkAgainstEval(t, e, prog, ctx, cols, n, sel)
			checkAgainstEval(t, e, prog, ctx, cols, n, []int{})
		}
	}
	if compiled < 1500 || rejected == 0 {
		t.Fatalf("compiled %d, rejected %d: the generator no longer exercises binding and its fallbacks", compiled, rejected)
	}
}

// The benchmark's row filter and email mask compile once an identity is
// bound, to the branch each principal gets; without one they still fall
// back, naming the node that stopped them.
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
	ctxs := identityContexts()
	for _, tc := range []struct {
		e          plan.Expr
		ctx        string
		root       vecNode
		unboundWhy string
	}{
		{rowFilter, "member", &constNode{}, "GroupMember"},
		{rowFilter, "non-member", &cmpNode{}, "GroupMember"},
		{mask, "member", &refNode{}, "Case"},
		{mask, "non-member", &constNode{}, "Case"},
	} {
		prog, why := CompileVecBound(tc.e, kinds, ctxs[tc.ctx])
		if prog == nil {
			t.Fatalf("%s (%s) did not compile: %s", tc.e, tc.ctx, why)
		}
		if got, want := rootShape(prog.root), rootShape(tc.root); got != want {
			t.Errorf("%s (%s) compiled to %s, want %s", tc.e, tc.ctx, got, want)
		}
		if _, why := CompileVecBound(tc.e, kinds, nil); why != tc.unboundWhy {
			t.Errorf("%s unbound: rejected %q, want %q", tc.e, why, tc.unboundWhy)
		}
		if _, ok := CompileVec(tc.e, kinds); ok {
			t.Errorf("%s compiled without an identity", tc.e)
		}
	}
}

func rootShape(n vecNode) string {
	switch n.(type) {
	case *constNode:
		return "const"
	case *cmpNode:
		return "cmp"
	case *refNode:
		return "ref"
	}
	return "other"
}

// Select over selections of every shape — all rows, a subset, a non-nil
// empty one, a single row — equals Run followed by a scan for TRUE. An
// empty selection must select nothing, however the AND/OR tree is shaped.
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
	checked := 0
	for trial := 0; trial < 600; trial++ {
		e := randBool(r, 4)
		ctx := (*Context)(nil)
		if trial%2 == 1 {
			e = randIdentity(r, 4)
			ctx = identityContexts()[[]string{"member", "non-member"}[trial%4/2]]
		}
		prog, _ := CompileVecBound(e, kinds, ctx)
		if prog == nil {
			continue
		}
		checked++
		for _, sel := range sels {
			checkSelect(t, e, prog, cols, n, sel)
			if sel != nil && len(sel) == 0 {
				if got := prog.Select(cols, n, sel, nil); len(got) != 0 {
					t.Fatalf("%s selected %v from an empty selection", e, got)
				}
			}
		}
	}
	if checked < 300 {
		t.Fatalf("only %d/600 expressions compiled", checked)
	}
}

// FuzzVecSelect draws an expression (identity-bound or not) from the seed
// and a selection from the mask bytes — absent, empty, or any subset — and
// requires Select to equal Run plus a scan, and Run to equal Eval.
func FuzzVecSelect(f *testing.F) {
	f.Add(int64(1), []byte{}, uint8(0))
	f.Add(int64(2), []byte{0}, uint8(1))
	f.Add(int64(3), []byte{0xff, 0x0f}, uint8(2))
	f.Add(int64(24), []byte{0xaa, 0x55, 0x01}, uint8(3))
	const n = 64
	cols, kinds := vecFixture(n)
	ctxs := []*Context{nil, identityContexts()["member"], identityContexts()["non-member"], identityContexts()["no-groups"]}
	f.Fuzz(func(t *testing.T, seed int64, mask []byte, who uint8) {
		r := rand.New(rand.NewSource(seed))
		ctx := ctxs[int(who)%len(ctxs)]
		var e plan.Expr
		if ctx == nil {
			e = randBool(r, 4)
		} else {
			e = randIdentity(r, 4)
		}
		prog, _ := CompileVecBound(e, kinds, ctx)
		if prog == nil {
			return
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
		evalCtx := ctx
		if evalCtx == nil {
			evalCtx = &Context{}
		}
		checkAgainstEval(t, e, prog, evalCtx, cols, n, sel)
		checkSelect(t, e, prog, cols, n, sel)
	})
}
