package sentinel

import (
	"strings"
	"testing"

	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

func ref(i int, name string, k types.Kind) *plan.BoundRef {
	return &plan.BoundRef{Index: i, Name: name, Kind: k}
}

func salesSchema() *types.Schema {
	return types.NewSchema(
		types.Field{Name: "amount", Kind: types.KindFloat64},
		types.Field{Name: "date", Kind: types.KindString},
		types.Field{Name: "seller", Kind: types.KindString},
		types.Field{Name: "region", Kind: types.KindString},
	)
}

func salesScan() *plan.Scan {
	return &plan.Scan{Table: "main.default.sales", TableSchema: salesSchema(), Version: -1}
}

func regionUS(idx int) plan.Expr {
	return &plan.Binary{Op: plan.OpEq,
		L: ref(idx, "region", types.KindString), R: plan.Lit(types.String("US")),
		ResultKind: types.KindBool}
}

// amountMask is CASE WHEN IS_ACCOUNT_GROUP_MEMBER('finance') THEN amount
// ELSE 0 END — the shape the analyzer injects for a column mask.
func amountMask(idx int) plan.Expr {
	return &plan.Case{
		Whens: []plan.WhenClause{{
			Cond: &plan.GroupMember{Group: "finance"},
			Then: ref(idx, "amount", types.KindFloat64),
		}},
		Else:       plan.Lit(types.Float64(0)),
		ResultKind: types.KindFloat64,
	}
}

// governedSales mirrors the analyzer's barrier shape for a table with both a
// row filter and a column mask:
// SecureView -> Project(masks) -> Filter(rowFilter) -> Scan.
func governedSales() *plan.SecureView {
	sc := salesScan()
	f := &plan.Filter{Cond: regionUS(3), Child: sc}
	proj := &plan.Project{
		Exprs: []plan.Expr{
			plan.As(amountMask(0), "amount"),
			ref(1, "date", types.KindString),
			ref(2, "seller", types.KindString),
			ref(3, "region", types.KindString),
		},
		Child:     f,
		OutSchema: salesSchema(),
	}
	return &plan.SecureView{
		Name:        "main.default.sales",
		PolicyKinds: []string{"row_filter", "column_mask"},
		Child:       proj,
	}
}

// userQuery wraps the governed table in a typical user plan.
func userQuery(sv plan.Node) plan.Node {
	return &plan.Project{
		Exprs: []plan.Expr{ref(0, "amount", types.KindFloat64), ref(2, "seller", types.KindString)},
		Child: sv,
		OutSchema: types.NewSchema(
			types.Field{Name: "amount", Kind: types.KindFloat64},
			types.Field{Name: "seller", Kind: types.KindString},
		),
	}
}

func mustClean(t *testing.T, r *Report) {
	t.Helper()
	if err := r.Err(); err != nil {
		t.Fatalf("expected clean report, got: %v\nall: %v", err, r.Violations)
	}
}

func mustViolate(t *testing.T, r *Report, inv Invariant) Violation {
	t.Helper()
	for _, v := range r.Violations {
		if v.Invariant == inv {
			return v
		}
	}
	t.Fatalf("expected a %s violation, got: %v", inv, r.Violations)
	return Violation{}
}

func TestVerifyCleanOptimizedPlan(t *testing.T) {
	analyzed := userQuery(governedSales())
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	r := Verify(analyzed, optimized)
	mustClean(t, r)
	if r.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1", r.Barriers)
	}
	// The barrier must carry cleared invariants for the explain annotation.
	found := false
	for n, invs := range r.Cleared {
		if _, ok := n.(*plan.SecureView); ok && len(invs) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no cleared invariants recorded on the SecureView barrier")
	}
}

func TestVerifyIdentityPlan(t *testing.T) {
	analyzed := userQuery(governedSales())
	mustClean(t, Verify(analyzed, analyzed))
}

func TestRowFilterDropped(t *testing.T) {
	analyzed := userQuery(governedSales())
	// Simulate a broken rule that deletes the policy filter.
	broken := plan.Transform(optimizer.Optimize(analyzed, optimizer.DefaultOptions()), func(x plan.Node) plan.Node {
		if sc, ok := x.(*plan.Scan); ok && len(sc.PushedFilters) > 0 {
			cp := *sc
			cp.PushedFilters = nil
			return &cp
		}
		if f, ok := x.(*plan.Filter); ok {
			return f.Child
		}
		return x
	})
	v := mustViolate(t, Verify(analyzed, broken), InvRowFilter)
	if !strings.Contains(v.Detail, "region") {
		t.Errorf("violation should name the policy predicate, got %q", v.Detail)
	}
}

func TestRowFilterWeakened(t *testing.T) {
	analyzed := userQuery(governedSales())
	// Replace region = 'US' with region = 'EU' below the barrier: same
	// shape, different predicate — still a violation.
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		if f, ok := x.(*plan.Filter); ok {
			return &plan.Filter{
				Cond: &plan.Binary{Op: plan.OpEq,
					L: ref(3, "region", types.KindString), R: plan.Lit(types.String("EU")),
					ResultKind: types.KindBool},
				Child: f.Child,
			}
		}
		return x
	})
	mustViolate(t, Verify(analyzed, broken), InvRowFilter)
}

func TestRowFilterSurvivesConstantFolding(t *testing.T) {
	// Policy predicate amount > 1000*2; the optimizer folds it to
	// amount > 2000. Dominance must still be proved.
	pred := &plan.Binary{Op: plan.OpGt,
		L: ref(0, "amount", types.KindFloat64),
		R: &plan.Binary{Op: plan.OpMul,
			L: plan.Lit(types.Int64(1000)), R: plan.Lit(types.Int64(2)),
			ResultKind: types.KindInt64},
		ResultKind: types.KindBool}
	sv := &plan.SecureView{
		Name:        "main.default.sales",
		PolicyKinds: []string{"row_filter"},
		Child:       &plan.Filter{Cond: pred, Child: salesScan()},
	}
	analyzed := userQuery(sv)
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	mustClean(t, Verify(analyzed, optimized))
}

func TestMaskDropped(t *testing.T) {
	analyzed := userQuery(governedSales())
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		p, ok := x.(*plan.Project)
		if !ok || len(p.Exprs) != 4 {
			return x
		}
		// Replace the mask with the raw column.
		exprs := append([]plan.Expr{}, p.Exprs...)
		exprs[0] = ref(0, "amount", types.KindFloat64)
		return &plan.Project{Exprs: exprs, Child: p.Child, OutSchema: p.OutSchema}
	})
	v := mustViolate(t, Verify(analyzed, broken), InvColumnMask)
	if !strings.Contains(v.Detail, "amount") {
		t.Errorf("violation should name the masked column, got %q", v.Detail)
	}
}

func TestMaskAltered(t *testing.T) {
	analyzed := userQuery(governedSales())
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		p, ok := x.(*plan.Project)
		if !ok || len(p.Exprs) != 4 {
			return x
		}
		exprs := append([]plan.Expr{}, p.Exprs...)
		// Swap the mask's group: widens who sees raw values.
		exprs[0] = plan.As(&plan.Case{
			Whens: []plan.WhenClause{{
				Cond: &plan.GroupMember{Group: "everyone"},
				Then: ref(0, "amount", types.KindFloat64),
			}},
			Else:       plan.Lit(types.Float64(0)),
			ResultKind: types.KindFloat64,
		}, "amount")
		return &plan.Project{Exprs: exprs, Child: p.Child, OutSchema: p.OutSchema}
	})
	mustViolate(t, Verify(analyzed, broken), InvColumnMask)
}

func TestFilterPushedPastMask(t *testing.T) {
	analyzed := userQuery(governedSales())
	// A user predicate over the masked column smuggled below the mask
	// projection — the classic filter-past-mask leak (it observes raw
	// amounts via side channel even though output stays masked).
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		if f, ok := x.(*plan.Filter); ok {
			leak := &plan.Binary{Op: plan.OpGt,
				L: ref(0, "amount", types.KindFloat64), R: plan.Lit(types.Float64(5000)),
				ResultKind: types.KindBool}
			return &plan.Filter{
				Cond:  &plan.Binary{Op: plan.OpAnd, L: f.Cond, R: leak, ResultKind: types.KindBool},
				Child: f.Child,
			}
		}
		return x
	})
	v := mustViolate(t, Verify(analyzed, broken), InvColumnMask)
	if !strings.Contains(v.Detail, "below the mask projection") {
		t.Errorf("unexpected detail %q", v.Detail)
	}
}

func TestUDFMovedBelowBarrier(t *testing.T) {
	analyzed := userQuery(governedSales())
	udf := &plan.UDFCall{Name: "main.default.leak", Owner: "mallory",
		Args: []plan.Expr{ref(3, "region", types.KindString)}, ResultKind: types.KindBool}
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		if f, ok := x.(*plan.Filter); ok {
			return &plan.Filter{
				Cond:  &plan.Binary{Op: plan.OpAnd, L: f.Cond, R: udf, ResultKind: types.KindBool},
				Child: f.Child,
			}
		}
		return x
	})
	v := mustViolate(t, Verify(analyzed, broken), InvTrustDomain)
	if !strings.Contains(v.Detail, "mallory") {
		t.Errorf("violation should name the foreign trust domain, got %q", v.Detail)
	}
}

func TestBarrierRemoved(t *testing.T) {
	analyzed := userQuery(governedSales())
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		if sv, ok := x.(*plan.SecureView); ok {
			return sv.Child
		}
		return x
	})
	r := Verify(analyzed, broken)
	mustViolate(t, r, InvBarrier)
}

func TestGovernedScanEscapesBarrier(t *testing.T) {
	analyzed := userQuery(governedSales())
	// Barrier survives but a second, unprotected scan of the governed table
	// is introduced alongside it (e.g. by a broken dedup/cache rule).
	optimized := &plan.Union{L: analyzed, R: salesScan()}
	v := mustViolate(t, Verify(analyzed, optimized), InvBarrier)
	if !strings.Contains(v.Detail, "escaped") {
		t.Errorf("unexpected detail %q", v.Detail)
	}
}

func TestPruneDroppedPolicyColumn(t *testing.T) {
	analyzed := userQuery(governedSales())
	// Simulate a broken prune: scan narrowed to [amount, date] without
	// remapping the filter's region#3 reference.
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		if sc, ok := x.(*plan.Scan); ok {
			cp := *sc
			cp.ProjectedCols = []int{0, 1}
			return &cp
		}
		return x
	})
	r := Verify(analyzed, broken)
	mustViolate(t, r, InvPolicyCols)
	named := false
	for _, v := range r.Violations {
		if v.Invariant == InvPolicyCols && strings.Contains(v.Detail, "region") {
			named = true
		}
	}
	if !named {
		t.Errorf("no violation names the dropped filter column: %v", r.Violations)
	}
}

func TestPruneMisboundPolicyColumn(t *testing.T) {
	analyzed := userQuery(governedSales())
	// Ordinal remapped to the wrong surviving column (name mismatch).
	broken := plan.Transform(analyzed, func(x plan.Node) plan.Node {
		if f, ok := x.(*plan.Filter); ok {
			return &plan.Filter{
				Cond: &plan.Binary{Op: plan.OpEq,
					L: ref(1, "region", types.KindString), R: plan.Lit(types.String("US")),
					ResultKind: types.KindBool},
				Child: f.Child,
			}
		}
		return x
	})
	mustViolate(t, Verify(analyzed, broken), InvPolicyCols)
}

func remoteSales() *plan.RemoteScan {
	return &plan.RemoteScan{Relation: "main.default.sales", OutSchema: salesSchema(), PushedLimit: -1}
}

func TestRemoteScanCleanPushdown(t *testing.T) {
	analyzed := &plan.Filter{
		Cond:  &plan.Binary{Op: plan.OpEq, L: plan.Col("region"), R: plan.Lit(types.String("US")), ResultKind: types.KindBool},
		Child: remoteSales(),
	}
	rs := remoteSales()
	rs.PushedFilters = []plan.Expr{
		&plan.Binary{Op: plan.OpEq, L: plan.Col("region"), R: plan.Lit(types.String("US")), ResultKind: types.KindBool},
	}
	r := Verify(analyzed, rs)
	mustClean(t, r)
	if r.RemoteScans != 1 {
		t.Errorf("RemoteScans = %d, want 1", r.RemoteScans)
	}
}

func TestRemoteScanRejectsUDF(t *testing.T) {
	analyzed := remoteSales()
	rs := remoteSales()
	rs.PushedFilters = []plan.Expr{
		&plan.UDFCall{Name: "main.default.leak", Owner: "mallory",
			Args: []plan.Expr{plan.Col("amount")}, ResultKind: types.KindBool},
	}
	v := mustViolate(t, Verify(analyzed, rs), InvRemotePush)
	if !strings.Contains(v.Detail, "mallory") {
		t.Errorf("violation should name the UDF owner, got %q", v.Detail)
	}
}

func TestRemoteScanRejectsOrdinalRefs(t *testing.T) {
	analyzed := remoteSales()
	rs := remoteSales()
	// BoundRefs must never ship: the remote side resolves by name.
	rs.PushedFilters = []plan.Expr{
		&plan.Binary{Op: plan.OpEq,
			L: ref(3, "region", types.KindString), R: plan.Lit(types.String("US")),
			ResultKind: types.KindBool},
	}
	mustViolate(t, Verify(analyzed, rs), InvRemotePush)
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a := userQuery(governedSales())
	if Fingerprint(a) != Fingerprint(userQuery(governedSales())) {
		t.Error("fingerprint not deterministic for identical plans")
	}
	if Fingerprint(a) == Fingerprint(salesScan()) {
		t.Error("distinct plans share a fingerprint")
	}
}

func TestExplainVerifiedAnnotations(t *testing.T) {
	analyzed := userQuery(governedSales())
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	r := Verify(analyzed, optimized)
	mustClean(t, r)
	out := ExplainVerified(optimized, r)
	if !strings.Contains(out, "-- verified: ") {
		t.Fatalf("no verification annotations:\n%s", out)
	}
	if !strings.Contains(out, string(InvRowFilter)) || !strings.Contains(out, string(InvColumnMask)) {
		t.Errorf("annotations missing invariants:\n%s", out)
	}
	if !strings.Contains(out, r.Fingerprint) {
		t.Errorf("header missing fingerprint:\n%s", out)
	}
	// SecureView interiors stay redacted: the policy filter must not leak.
	if strings.Contains(out, "US") {
		t.Errorf("explain leaks policy predicate:\n%s", out)
	}
}

func TestViolationErrorMessage(t *testing.T) {
	err := (&Report{
		Fingerprint: "f",
		Violations: []Violation{
			{Invariant: InvRowFilter, Securable: "t", Detail: "gone"},
			{Invariant: InvColumnMask, Securable: "t", Detail: "altered"},
		},
	}).Err()
	if err == nil || !strings.Contains(err.Error(), "row-filter-dominance") ||
		!strings.Contains(err.Error(), "1 more") {
		t.Fatalf("err = %v", err)
	}
}

// prunedQuery selects only seller and date: the optimizer drops amount's
// mask and stops scanning amount.
func prunedQuery() plan.Node {
	return &plan.Project{
		Exprs:     []plan.Expr{ref(2, "seller", types.KindString), ref(1, "date", types.KindString)},
		Child:     governedSales(),
		OutSchema: types.NewSchema(types.Field{Name: "seller", Kind: types.KindString}, types.Field{Name: "date", Kind: types.KindString}),
	}
}

func TestMaskPrunedWithItsRawColumnIsClean(t *testing.T) {
	analyzed := prunedQuery()
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	if plan.Contains(optimized, func(n plan.Node) bool {
		sc, ok := n.(*plan.Scan)
		return ok && sc.Schema().Len() == 4
	}) {
		t.Fatalf("expected the scan under the barrier to be pruned:\n%s", plan.Explain(optimized))
	}
	mustClean(t, Verify(analyzed, optimized))
}

func TestMaskPrunedWhileRawColumnCarried(t *testing.T) {
	// A rewrite that drops amount's mask but keeps the raw amount flowing
	// into the barrier (nothing reads it yet) breaks (b): a mask may be
	// absent only when its raw column is absent from the barrier entirely.
	analyzed := prunedQuery()
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	broken := plan.Transform(optimized, func(x plan.Node) plan.Node {
		sc, ok := x.(*plan.Scan)
		if !ok || sc.ProjectedCols == nil {
			return x
		}
		cp := *sc
		cp.ProjectedCols = append(append([]int{}, sc.ProjectedCols...), 0)
		return &cp
	})
	v := mustViolate(t, Verify(analyzed, broken), InvColumnMask)
	if !strings.Contains(v.Detail, "column_mask:main.default.sales.amount") {
		t.Errorf("violation should name the mask label, got %q", v.Detail)
	}
}
