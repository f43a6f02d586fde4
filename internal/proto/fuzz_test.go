package proto

import (
	"strings"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// filterChain nests n Filters over one relation.
func filterChain(n int) plan.Node {
	var node plan.Node = plan.NewUnresolvedRelation("t")
	for i := 0; i < n; i++ {
		node = &plan.Filter{Cond: plan.Col("x"), Child: node}
	}
	return node
}

// notChain nests n NOTs over one column.
func notChain(n int) plan.Expr {
	var e plan.Expr = plan.Col("x")
	for i := 0; i < n; i++ {
		e = &plan.Unary{Op: plan.OpNot, Child: e}
	}
	return e
}

func mustEncode(t testing.TB, n plan.Node) []byte {
	t.Helper()
	data, err := EncodePlan(n)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Relations and expressions nested past plan.MaxNestingDepth fail to decode,
// through every entry point; a plan inside the bound round-trips.
func TestNestingDepthBound(t *testing.T) {
	roundTripPlan(t, filterChain(plan.MaxNestingDepth-1))

	tooDeep := mustEncode(t, filterChain(plan.MaxNestingDepth+1))
	if _, err := DecodePlan(tooDeep); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
		t.Errorf("DecodePlan: err = %v, want a nesting error", err)
	}
	root, err := EncodeRootPlan(&Plan{Relation: filterChain(plan.MaxNestingDepth + 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRootPlan(root); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
		t.Errorf("DecodeRootPlan: err = %v, want a nesting error", err)
	}
	expr, err := EncodeExpr(notChain(plan.MaxNestingDepth + 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeExpr(expr); err == nil || !strings.Contains(err.Error(), "nested deeper than") {
		t.Errorf("DecodeExpr: err = %v, want a nesting error", err)
	}
	// Expression levels count on top of the relation levels above them.
	mixed := mustEncode(t, &plan.Filter{Cond: notChain(plan.MaxNestingDepth), Child: plan.NewUnresolvedRelation("t")})
	if _, err := DecodePlan(mixed); err == nil {
		t.Error("a filter over a condition at the bound decoded")
	}
}

// FuzzDecodePlan feeds the same bytes to the three decoders a Connect client
// reaches: DecodePlan, DecodeRootPlan and DecodeExpr. None may panic or
// recurse without bound. (A decoded plan may still lack a required input or
// condition; the analyzer rejects those, so no round trip is asserted.)
func FuzzDecodePlan(f *testing.F) {
	f.Add(mustEncode(f, samplePlan()))
	f.Add(mustEncode(f, filterChain(plan.MaxNestingDepth+1)))
	for _, sql := range []string{"SELECT CASE @ END", "SELECT NOT @", "SELECT seller FROM sales WHERE NOT NOT @"} {
		root, err := EncodeRootPlan(&Plan{Command: &Command{SQL: sql}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(root)
	}
	for _, e := range []plan.Expr{
		notChain(plan.MaxNestingDepth + 1),
		&plan.Case{Whens: []plan.WhenClause{{Cond: plan.Col("c"), Then: plan.Lit(types.String("***"))}}, Else: plan.Col("seller")},
	} {
		data, err := EncodeExpr(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodePlan(data)
		_, _ = DecodeRootPlan(data)
		_, _ = DecodeExpr(data)
	})
}
