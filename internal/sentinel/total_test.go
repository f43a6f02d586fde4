package sentinel

import (
	"strings"
	"testing"

	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Invariant (i), total-below-barrier: inside a governed table's barrier
// nothing but total expressions and the policy's own predicates and masks
// may run, so no error can answer a question about a hidden row.

const rowFilterLabel = "row_filter:main.default.sales"

func labeledGovernedSales() *plan.SecureView {
	sv := governedSales()
	sv.Labels = []plan.Label{
		{Kind: plan.LabelRowFilter, Securable: sv.Name},
		{Kind: plan.LabelColumnMask, Securable: sv.Name, Column: "amount"},
	}
	return sv
}

// throwing is CASE WHEN date = '2024-12-02' THEN CAST('boom' AS BIGINT)
// ELSE 1 END = 1 over the scan's date column at idx.
func throwing(idx int) plan.Expr {
	probe := &plan.Binary{Op: plan.OpEq, L: ref(idx, "date", types.KindString),
		R: plan.Lit(types.String("2024-12-02")), ResultKind: types.KindBool}
	c := &plan.Case{
		Whens:      []plan.WhenClause{{Cond: probe, Then: &plan.Cast{Child: plan.Lit(types.String("boom")), To: types.KindInt64}}},
		Else:       plan.Lit(types.Int64(1)),
		ResultKind: types.KindInt64,
	}
	return &plan.Binary{Op: plan.OpEq, L: c, R: plan.Lit(types.Int64(1)), ResultKind: types.KindBool}
}

// onScan applies f to every scan of the optimized plan.
func onScan(n plan.Node, f func(*plan.Scan) plan.Node) plan.Node {
	return plan.Transform(n, func(x plan.Node) plan.Node {
		if sc, ok := x.(*plan.Scan); ok {
			return f(sc)
		}
		return x
	})
}

func TestTotalBelowBarrierClearsCopiedConjuncts(t *testing.T) {
	// date and seller are unmasked: both conjuncts are copied into the scan.
	cond := &plan.Binary{Op: plan.OpAnd,
		L:          &plan.Binary{Op: plan.OpEq, L: ref(1, "date", types.KindString), R: plan.Lit(types.String("2024-12-01")), ResultKind: types.KindBool},
		R:          &plan.IsNull{Child: ref(2, "seller", types.KindString), Negated: true},
		ResultKind: types.KindBool}
	analyzed := userQuery(&plan.Filter{Cond: cond, Child: labeledGovernedSales()})
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	var pushed []plan.Expr
	plan.Walk(optimized, func(n plan.Node) bool {
		if sc, ok := n.(*plan.Scan); ok {
			pushed = sc.PushedFilters
		}
		return true
	})
	if len(pushed) != 3 {
		t.Fatalf("want the policy conjunct and two copies in the scan, got %v", pushed)
	}
	r := Verify(analyzed, optimized)
	mustClean(t, r)
	out := ExplainVerified(optimized, r)
	if !strings.Contains(out, string(InvTotal)) {
		t.Errorf("barrier does not show %s cleared:\n%s", InvTotal, out)
	}
}

func TestTotalBelowBarrierRejectsErrorOracles(t *testing.T) {
	analyzed := userQuery(labeledGovernedSales())
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	dateIdx := func(sc *plan.Scan) int {
		for i, f := range sc.Schema().Fields {
			if f.Name == "date" {
				return i
			}
		}
		return -1
	}
	// The scan no longer reads date after pruning; widen it back, as an
	// attacker would, then place the oracle.
	widen := func(sc *plan.Scan) *plan.Scan {
		cp := *sc
		if dateIdx(sc) < 0 {
			cp.ProjectedCols = append(append([]int{}, sc.ProjectedCols...), 1)
		}
		return &cp
	}
	attacks := map[string]plan.Node{
		"ahead of the row filter in the pushed filters": onScan(optimized, func(sc *plan.Scan) plan.Node {
			cp := widen(sc)
			cp.PushedFilters = append([]plan.Expr{throwing(dateIdx(cp))}, sc.PushedFilters...)
			return cp
		}),
		"after the row filter in the pushed filters": onScan(optimized, func(sc *plan.Scan) plan.Node {
			cp := widen(sc)
			cp.PushedFilters = append(append([]plan.Expr{}, sc.PushedFilters...), throwing(dateIdx(cp)))
			return cp
		}),
		"as a filter below the mask projection": onScan(optimized, func(sc *plan.Scan) plan.Node {
			cp := widen(sc)
			return &plan.Filter{Cond: throwing(dateIdx(cp)), Child: cp}
		}),
	}
	for name, broken := range attacks {
		v := mustViolate(t, Verify(analyzed, broken), InvTotal)
		if !strings.Contains(v.Detail, rowFilterLabel) {
			t.Errorf("%s: violation not attributed to %s: %s", name, rowFilterLabel, v.Detail)
		}
		if strings.Contains(v.Detail, "boom") || strings.Contains(v.Detail, "2024-12-02") {
			t.Errorf("%s: violation leaks literals: %s", name, v.Detail)
		}
	}
}

func TestTotalBelowBarrierAdmitsPolicyMachinery(t *testing.T) {
	// A row filter and a mask that are not total themselves (a scalar
	// function, a CASE) are the policy's own and stay allowed.
	sv := labeledGovernedSales()
	proj := sv.Child.(*plan.Project)
	upperUS := &plan.Binary{Op: plan.OpEq,
		L:          &plan.ScalarFunc{Name: "upper", Args: []plan.Expr{ref(3, "region", types.KindString)}, ResultKind: types.KindString},
		R:          plan.Lit(types.String("US")),
		ResultKind: types.KindBool}
	proj.Child = &plan.Filter{Cond: upperUS, Child: salesScan()}
	analyzed := userQuery(sv)
	mustClean(t, Verify(analyzed, optimizer.Optimize(analyzed, optimizer.DefaultOptions())))
}

func TestTotalBelowBarrierOnMaskOnlyBarrier(t *testing.T) {
	sc := salesScan()
	sv := &plan.SecureView{
		Name: "main.default.sales", PolicyKinds: []string{"column_mask"},
		Labels: []plan.Label{{Kind: plan.LabelColumnMask, Securable: "main.default.sales", Column: "amount"}},
		Child: &plan.Project{
			Exprs: []plan.Expr{plan.As(amountMask(0), "amount"), ref(1, "date", types.KindString),
				ref(2, "seller", types.KindString), ref(3, "region", types.KindString)},
			Child: sc, OutSchema: salesSchema(),
		},
	}
	analyzed := userQuery(sv)
	broken := onScan(analyzed, func(sc *plan.Scan) plan.Node {
		cp := *sc
		cp.PushedFilters = []plan.Expr{throwing(1)}
		return &cp
	})
	v := mustViolate(t, Verify(analyzed, broken), InvTotal)
	if !strings.Contains(v.Detail, "column_mask:main.default.sales.amount") {
		t.Errorf("mask-only violation not attributed to the mask label: %s", v.Detail)
	}
}

// A reference whose kind lies about its column turns a whitelisted
// comparison into one that raises: NOT (amount = 200 AND region = 5) with
// region declared BIGINT fails on exactly the rows with amount 200. Total
// trusts the declared kinds, so (e) must prove them.
func TestTotalBelowBarrierNeedsTrueKinds(t *testing.T) {
	analyzed := userQuery(labeledGovernedSales())
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	broken := onScan(optimized, func(sc *plan.Scan) plan.Node {
		idx := map[string]int{}
		for i, f := range sc.Schema().Fields {
			idx[f.Name] = i
		}
		lie := &plan.Binary{Op: plan.OpAnd,
			L: &plan.Binary{Op: plan.OpEq, L: ref(idx["amount"], "amount", types.KindFloat64),
				R: plan.Lit(types.Float64(200)), ResultKind: types.KindBool},
			R: &plan.Binary{Op: plan.OpEq, L: ref(idx["region"], "region", types.KindInt64),
				R: plan.Lit(types.Int64(5)), ResultKind: types.KindBool},
			ResultKind: types.KindBool}
		cp := *sc
		cp.PushedFilters = append([]plan.Expr{&plan.Unary{Op: plan.OpNot, Child: lie}}, sc.PushedFilters...)
		return &cp
	})
	v := mustViolate(t, Verify(analyzed, broken), InvPolicyCols)
	if !strings.Contains(v.Detail, "as BIGINT but the column is STRING") {
		t.Errorf("unexpected detail %q", v.Detail)
	}
}
