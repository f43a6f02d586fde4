package core

import (
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/audit"
	"lakeguard/internal/catalog"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/sql"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// These tests register deliberately broken optimizer rules — the "Queen's
// Guard" attack surface of the paper: a rewrite that reorders user code or
// drops policy operators — and prove the sentinel gate refuses to execute
// the resulting plans, with the failure audited.

// brokenEnv builds a standard-compute deployment whose optimizer runs the
// given sabotage rules after the real ones.
func brokenEnv(t *testing.T, rules ...optimizer.Rule) *env {
	t.Helper()
	opts := optimizer.DefaultOptions()
	opts.ExtraRules = rules
	return newEnv(t, Config{Name: "broken", Optimizer: &opts})
}

// seedFiltered creates the row-filtered sales table and grants alice SELECT.
func seedFiltered(t *testing.T, e *env) {
	t.Helper()
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")
}

func wantViolation(t *testing.T, err error, inv sentinel.Invariant) {
	t.Helper()
	if err == nil {
		t.Fatalf("sabotaged plan executed; want a %s violation", inv)
	}
	if !strings.Contains(err.Error(), string(inv)) {
		t.Fatalf("err = %v, want invariant %s", err, inv)
	}
}

func sentinelEvents(e *env) []audit.Event {
	return e.cat.Audit().Events(func(ev audit.Event) bool {
		return ev.Action == "SENTINEL_VERIFY"
	})
}

// TestSentinelCatchesDroppedPolicyFilter drives the sabotage through every
// entry point of the query seam: each must be refused with the row-filter
// violation and leave exactly one SENTINEL_VERIFY deny event attributed to
// the user, session, plan fingerprint and the request's trace.
func TestSentinelCatchesDroppedPolicyFilter(t *testing.T) {
	// Sabotage: clear every pushed scan filter (the optimizer pushed the
	// policy's region = 'US' there) and strip residual filters under
	// barriers.
	e := brokenEnv(t, func(n plan.Node) plan.Node {
		return plan.Transform(n, func(x plan.Node) plan.Node {
			if sc, ok := x.(*plan.Scan); ok && len(sc.PushedFilters) > 0 {
				cp := *sc
				cp.PushedFilters = nil
				return &cp
			}
			return x
		})
	})
	e.service.SetTracer(telemetry.NewTracer())
	seedFiltered(t, e)
	adminC := e.client("tok-admin")
	mustExec(t, adminC, "CREATE TABLE sink (amount DOUBLE)")
	mustExec(t, adminC, "GRANT SELECT ON sink TO 'alice@corp.com'")
	mustExec(t, adminC, "GRANT MODIFY ON sink TO 'alice@corp.com'")
	mustExec(t, adminC, "CREATE MATERIALIZED VIEW mv AS SELECT amount FROM sales")

	const q = "SELECT amount FROM sales"
	aliceC := e.client("tok-alice")
	discard := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		name string
		user string
		run  func() error
	}{
		{"connect execute", alice, func() error { return discard(aliceC.Table("sales").Select("amount").Collect()) }},
		{"SQL SELECT", alice, func() error { return discard(aliceC.ExecSQL(q)) }},
		{"SQL EXPLAIN", alice, func() error { return discard(aliceC.ExecSQL("EXPLAIN " + q)) }},
		{"/v1/analyze", alice, func() error { return discard(aliceC.Sql(q).Explain()) }},
		{"/v1/analyzeVerified", alice, func() error { return discard(aliceC.Sql(q).ExplainVerified()) }},
		{"EXPLAIN ANALYZE", alice, func() error { return discard(aliceC.Sql(q).ExplainAnalyze()) }},
		{"CTAS", alice, func() error { return discard(aliceC.ExecSQL("CREATE TABLE copied AS " + q)) }},
		{"INSERT SELECT", alice, func() error { return discard(aliceC.ExecSQL("INSERT INTO sink " + q)) }},
		{"MERGE source", alice, func() error {
			return discard(aliceC.ExecSQL(`MERGE INTO sink AS t USING sales AS s ON t.amount = s.amount
				WHEN NOT MATCHED THEN INSERT VALUES (s.amount)`))
		}},
		{"REFRESH MATERIALIZED VIEW", admin, func() error { return discard(adminC.ExecSQL("REFRESH MATERIALIZED VIEW mv")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := len(sentinelDenies(e))
			wantViolation(t, tc.run(), sentinel.InvRowFilter)
			denies := sentinelDenies(e)
			if len(denies) != before+1 {
				t.Fatalf("SENTINEL_VERIFY deny events %d -> %d, want exactly one more", before, len(denies))
			}
			last := denies[len(denies)-1]
			if last.User != tc.user || last.SessionID == "" ||
				!strings.HasPrefix(last.Securable, "plan:") || last.TraceID == "" {
				t.Errorf("deny event misattributed: %+v", last)
			}
		})
	}
}

func sentinelDenies(e *env) []audit.Event {
	return e.cat.Audit().Events(func(ev audit.Event) bool {
		return ev.Action == "SENTINEL_VERIFY" && ev.Decision == audit.DecisionDeny
	})
}

func TestSentinelCatchesFilterPastMask(t *testing.T) {
	// Sabotage: push a user predicate over the raw masked column below the
	// mask projection (the classic filter-past-mask leak).
	leak := &plan.Binary{Op: plan.OpEq,
		L: &plan.BoundRef{Index: 2, Name: "seller", Kind: types.KindString},
		R: plan.Lit(types.String("ann")), ResultKind: types.KindBool}
	e := brokenEnv(t, func(n plan.Node) plan.Node {
		return plan.Transform(n, func(x plan.Node) plan.Node {
			sv, ok := x.(*plan.SecureView)
			if !ok {
				return x
			}
			proj, ok := sv.Child.(*plan.Project)
			if !ok {
				return x
			}
			return &plan.SecureView{Name: sv.Name, PolicyKinds: sv.PolicyKinds,
				Child: &plan.Project{Exprs: proj.Exprs, OutSchema: proj.OutSchema,
					Child: &plan.Filter{Cond: leak, Child: proj.Child}}}
		})
	})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales ALTER COLUMN seller SET MASK '''***'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	_, err := e.client("tok-alice").Sql("SELECT amount FROM sales").Collect()
	wantViolation(t, err, sentinel.InvColumnMask)
}

func TestSentinelCatchesUDFBelowBarrier(t *testing.T) {
	// Sabotage: move a user-owned UDF predicate inside the secure-view
	// barrier, where it would observe pre-policy rows.
	e := brokenEnv(t, func(n plan.Node) plan.Node {
		return plan.Transform(n, func(x plan.Node) plan.Node {
			sv, ok := x.(*plan.SecureView)
			if !ok {
				return x
			}
			udf := &plan.UDFCall{Name: "main.default.exfil", Owner: "mallory@corp.com",
				Args:       []plan.Expr{&plan.BoundRef{Index: 0, Name: "amount", Kind: types.KindFloat64}},
				ResultKind: types.KindBool}
			return &plan.SecureView{Name: sv.Name, PolicyKinds: sv.PolicyKinds,
				Child: &plan.Filter{Cond: udf, Child: sv.Child}}
		})
	})
	seedFiltered(t, e)

	_, err := e.client("tok-alice").Sql("SELECT amount FROM sales").Collect()
	wantViolation(t, err, sentinel.InvTrustDomain)
}

func TestSentinelCatchesUDFShippedToRemote(t *testing.T) {
	// Sabotage on dedicated compute: smuggle a user UDF into the eFGAC
	// RemoteScan's pushed filters, which would execute the user's code on
	// the trusted serverless side.
	opts := optimizer.DefaultOptions()
	opts.ExtraRules = []optimizer.Rule{func(n plan.Node) plan.Node {
		return plan.Transform(n, func(x plan.Node) plan.Node {
			rs, ok := x.(*plan.RemoteScan)
			if !ok {
				return x
			}
			cp := *rs
			cp.PushedFilters = append(append([]plan.Expr{}, rs.PushedFilters...),
				&plan.UDFCall{Name: "main.default.exfil", Owner: "mallory@corp.com",
					Args: []plan.Expr{plan.Col("amount")}, ResultKind: types.KindBool})
			return &cp
		})
	}}

	std := newEnv(t, Config{Name: "std"})
	seedFiltered(t, std)
	dedicated := newEnv(t, Config{
		Name: "dedicated", Compute: catalog.ComputeDedicated,
		Catalog: std.cat, Optimizer: &opts,
	})

	_, err := dedicated.client("tok-alice").Sql("SELECT amount FROM sales").Collect()
	wantViolation(t, err, sentinel.InvRemotePush)
}

func TestSentinelCatchesBrokenPrune(t *testing.T) {
	// Sabotage: re-narrow the scan to its first column without remapping the
	// policy filter's references — the prune-drops-policy-column bug class.
	e := brokenEnv(t, func(n plan.Node) plan.Node {
		return plan.Transform(n, func(x plan.Node) plan.Node {
			if sc, ok := x.(*plan.Scan); ok {
				cp := *sc
				cp.ProjectedCols = []int{0}
				return &cp
			}
			return x
		})
	})
	seedFiltered(t, e)

	_, err := e.client("tok-alice").Sql("SELECT amount FROM sales").Collect()
	wantViolation(t, err, sentinel.InvPolicyCols)
}

func TestSentinelAuditsCleanVerification(t *testing.T) {
	// Every verification is audited, passes included, attributed to the
	// user, session, and plan fingerprint.
	e := newEnv(t, Config{Name: "std"})
	seedFiltered(t, e)

	if _, err := e.client("tok-alice").Sql("SELECT amount FROM sales").Collect(); err != nil {
		t.Fatal(err)
	}
	evs := sentinelEvents(e)
	if len(evs) == 0 {
		t.Fatal("no SENTINEL_VERIFY audit events for a clean run")
	}
	last := evs[len(evs)-1]
	if last.Decision != audit.DecisionAllow || last.User != alice ||
		last.SessionID == "" || !strings.HasPrefix(last.Securable, "plan:") ||
		!strings.Contains(last.Reason, "barrier") {
		t.Errorf("allow event malformed: %+v", last)
	}
}

func TestExplainVerifiedOverWire(t *testing.T) {
	// The --explain-verified surface: the annotated plan names the cleared
	// invariants on each policy operator while keeping the barrier interior
	// redacted.
	e := newEnv(t, Config{Name: "std"})
	adminC := e.client("tok-admin")
	seedSales(t, adminC)
	mustExec(t, adminC, "ALTER TABLE sales SET ROW FILTER 'region = ''US'''")
	mustExec(t, adminC, "ALTER TABLE sales ALTER COLUMN seller SET MASK '''***'''")
	mustExec(t, adminC, "GRANT SELECT ON sales TO 'alice@corp.com'")

	out, err := e.client("tok-alice").Sql("SELECT amount, seller FROM sales").ExplainVerified()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"-- sentinel: plan ",
		"-- verified: ",
		string(sentinel.InvRowFilter),
		string(sentinel.InvColumnMask),
		string(sentinel.InvTrustDomain),
		"0 violation(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verified explain missing %q:\n%s", want, out)
		}
	}
	// Barrier interior must stay redacted: policy predicate not shown.
	if strings.Contains(out, "US") {
		t.Errorf("verified explain leaks the policy predicate:\n%s", out)
	}
}

// --- Figure 8 plans through the sentinel ---

// figure8Analyzed resolves the Figure 8 query without optimizing it.
func figure8Analyzed(t *testing.T, cat *catalog.Catalog, compute catalog.ComputeType) plan.Node {
	t.Helper()
	q, err := sql.ParseQuery(figure8Query)
	if err != nil {
		t.Fatal(err)
	}
	a := analyzer.New(cat, catalog.RequestContext{User: alice, Compute: compute, SessionID: "fig8"})
	resolved, err := a.Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	return resolved
}

func TestFigure8SentinelVerifiesTrustedPlan(t *testing.T) {
	cat := figure8Catalog(t)
	analyzed := figure8Analyzed(t, cat, catalog.ComputeStandard)
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	r := sentinel.Verify(analyzed, optimized)
	if err := r.Err(); err != nil {
		t.Fatalf("Figure 8 trusted plan failed verification: %v", err)
	}
	if r.Barriers != 1 {
		t.Errorf("Barriers = %d, want 1", r.Barriers)
	}
}

func TestFigure8SentinelVerifiesRewrittenPlan(t *testing.T) {
	cat := figure8Catalog(t)
	analyzed := figure8Analyzed(t, cat, catalog.ComputeDedicated)
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	r := sentinel.Verify(analyzed, optimized)
	if err := r.Err(); err != nil {
		t.Fatalf("Figure 8 eFGAC plan failed verification: %v", err)
	}
	if r.RemoteScans != 1 {
		t.Errorf("RemoteScans = %d, want 1", r.RemoteScans)
	}
}

func TestFigure8SentinelRejectsMutatedPlan(t *testing.T) {
	cat := figure8Catalog(t)
	analyzed := figure8Analyzed(t, cat, catalog.ComputeStandard)
	optimized := optimizer.Optimize(analyzed, optimizer.DefaultOptions())
	// Mutate: delete the policy filter that was pushed into the scan.
	mutated := plan.Transform(optimized, func(x plan.Node) plan.Node {
		if sc, ok := x.(*plan.Scan); ok && len(sc.PushedFilters) > 0 {
			cp := *sc
			cp.PushedFilters = nil
			return &cp
		}
		return x
	})
	err := sentinel.Verify(analyzed, mutated).Err()
	if err == nil {
		t.Fatal("mutated Figure 8 plan passed verification")
	}
	msg := err.Error()
	if !strings.Contains(msg, string(sentinel.InvRowFilter)) ||
		!strings.Contains(msg, "main.default.sales") ||
		!strings.Contains(msg, "region") {
		t.Errorf("rejection message should name the invariant, securable, and predicate: %v", msg)
	}
}
