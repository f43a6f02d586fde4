package optimizer

import (
	"strings"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Copies of user conjuncts below a governed table's barrier: only total,
// UDF-free conjuncts over unmasked columns are copied, each lands in the
// scan's pushed filters after the row filter's conjuncts, and the filter
// above the barrier is left exactly as it was.

// labeledSalesBarrier is maskedSalesBarrier with the labels the analyzer
// seeds on it.
func labeledSalesBarrier() *plan.SecureView {
	sv := maskedSalesBarrier()
	sv.Labels = []plan.Label{
		{Kind: plan.LabelRowFilter, Securable: sv.Name},
		{Kind: plan.LabelColumnMask, Securable: sv.Name, Column: "seller"},
	}
	return sv
}

func cmpOp(op plan.BinOp, l, r plan.Expr) plan.Expr {
	return &plan.Binary{Op: op, L: l, R: r, ResultKind: types.KindBool}
}

func and(cs ...plan.Expr) plan.Expr { return joinConjuncts(cs) }

// barrierScan returns the root filter above the barrier and the governed
// scan's pushed filters, rendered.
func barrierScan(t *testing.T, out plan.Node) (*plan.Filter, []string) {
	t.Helper()
	root, ok := out.(*plan.Filter)
	if !ok {
		t.Fatalf("filter above the barrier vanished:\n%s", plan.Explain(out))
	}
	if _, ok := root.Child.(*plan.SecureView); !ok {
		t.Fatalf("barrier displaced:\n%s", plan.Explain(out))
	}
	var pushed []string
	plan.Walk(out, func(n plan.Node) bool {
		if sc, ok := n.(*plan.Scan); ok {
			for _, f := range sc.PushedFilters {
				pushed = append(pushed, f.String())
			}
		}
		return true
	})
	return root, pushed
}

const policyConjunct = "(region#3 = 'US')"

func TestLeakProofCopyLandsAfterPolicy(t *testing.T) {
	amountGt := cmpOp(plan.OpGt, ref(0, "amount", types.KindFloat64), plan.Lit(types.Float64(10)))
	cond := and(eqStr(ref(1, "date", types.KindString), "2024-12-01"), amountGt)
	for _, tc := range []struct {
		name string
		sv   *plan.SecureView
	}{
		{"row filter and mask", labeledSalesBarrier()},
		{"row filter only", &plan.SecureView{
			Name: "main.default.sales", PolicyKinds: []string{"row_filter"},
			Labels: []plan.Label{{Kind: plan.LabelRowFilter, Securable: "main.default.sales"}},
			Child:  &plan.Filter{Cond: eqStr(ref(3, "region", types.KindString), "US"), Child: salesScan()},
		}},
	} {
		out := Optimize(&plan.Filter{Cond: cond, Child: tc.sv}, Options{PushFilters: true})
		root, pushed := barrierScan(t, out)
		if root.Cond.String() != cond.String() {
			t.Errorf("%s: filter above the barrier changed: %s, want %s", tc.name, root.Cond, cond)
		}
		want := []string{policyConjunct, "(date#1 = '2024-12-01')", "(amount#0 > 10)"}
		if strings.Join(pushed, " ") != strings.Join(want, " ") {
			t.Errorf("%s: pushed %v, want %v (copies after the policy conjunct)\n%s",
				tc.name, pushed, want, plan.Explain(out))
		}
	}
}

func TestLeakProofKeepsUnsafeConjunctsAbove(t *testing.T) {
	amount := ref(0, "amount", types.KindFloat64)
	region := ref(3, "region", types.KindString)
	total := cmpOp(plan.OpGt, amount, plan.Lit(types.Float64(10)))
	unsafe := map[string]plan.Expr{
		"masked column": eqStr(ref(2, "seller", types.KindString), "ann"),
		"cast":          cmpOp(plan.OpEq, &plan.Cast{Child: region, To: types.KindInt64}, plan.Lit(types.Int64(1))),
		"division": cmpOp(plan.OpGt,
			&plan.Binary{Op: plan.OpDiv, L: plan.Lit(types.Float64(1)), R: amount, ResultKind: types.KindFloat64},
			plan.Lit(types.Float64(0))),
		"udf": &plan.UDFCall{Name: "main.default.probe", Owner: "mallory@corp.com",
			Args: []plan.Expr{amount}, ResultKind: types.KindBool},
	}
	for name, c := range unsafe {
		out := Optimize(&plan.Filter{Cond: c, Child: labeledSalesBarrier()}, Options{PushFilters: true})
		root, pushed := barrierScan(t, out)
		if root.Cond.String() != c.String() {
			t.Errorf("%s: filter above the barrier changed: %s", name, root.Cond)
		}
		if len(pushed) != 1 || pushed[0] != policyConjunct {
			t.Errorf("%s: conjunct copied below the barrier: pushed %v", name, pushed)
		}
	}

	// A mask that is the raw column itself is still a mask: a conjunct on
	// its column stays above (the sentinel would deny a raw read of it).
	identity := labeledSalesBarrier()
	identity.Child.(*plan.Project).Exprs[2] = plan.As(ref(2, "seller", types.KindString), "seller")
	c := unsafe["masked column"]
	if _, pushed := barrierScan(t, Optimize(&plan.Filter{Cond: c, Child: identity}, Options{PushFilters: true})); len(pushed) != 1 {
		t.Errorf("conjunct on an identity-masked column copied: %v", pushed)
	}

	// View and materialized-view barriers admit nothing, total or not.
	for _, kind := range []string{"view", "materialized_view"} {
		sv := &plan.SecureView{Name: "main.default.v", PolicyKinds: []string{kind}, Child: salesScan()}
		out := Optimize(&plan.Filter{Cond: total, Child: sv}, DefaultOptions())
		_, pushed := barrierScan(t, out)
		if len(pushed) != 0 {
			t.Errorf("%s barrier: conjunct copied below it: %v", kind, pushed)
		}
	}

	// A conjunct mixing a total and an unsafe part is one conjunct: it stays.
	mixed := cmpOp(plan.OpOr, total, unsafe["cast"])
	_, pushed := barrierScan(t, Optimize(&plan.Filter{Cond: mixed, Child: labeledSalesBarrier()}, Options{PushFilters: true}))
	if len(pushed) != 1 {
		t.Errorf("mixed conjunct copied: %v", pushed)
	}
}

func TestLeakProofCopyIdempotent(t *testing.T) {
	cond := and(cmpOp(plan.OpGt, ref(0, "amount", types.KindFloat64), plan.Lit(types.Float64(10))),
		eqStr(ref(3, "region", types.KindString), "US"))
	proj := projectOver(&plan.Filter{Cond: cond, Child: labeledSalesBarrier()}, 0, 2)
	for _, opts := range []Options{{PushFilters: true}, DefaultOptions()} {
		once := Optimize(proj, opts)
		twice := pushFilters(once)
		if got, want := plan.Explain(twice), plan.Explain(once); got != want {
			t.Errorf("second pushFilters changed the plan:\n%s\nwant:\n%s", got, want)
		}
		var pushed []plan.Expr
		plan.Walk(once, func(n plan.Node) bool {
			if sc, ok := n.(*plan.Scan); ok {
				pushed = sc.PushedFilters
			}
			return true
		})
		// The user's region = 'US' matches the policy conjunct: one copy of
		// it is enough, and amount > 10 is copied once.
		if len(pushed) != 2 {
			t.Errorf("pushed filters %v, want the policy conjunct and one copy", pushed)
		}
	}
}
