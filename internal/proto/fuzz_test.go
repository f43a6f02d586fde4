package proto

import (
	"bytes"
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

// explainRoot renders what a root plan carries: its relation, or its
// command's input relation.
func explainRoot(p *Plan) string {
	switch {
	case p.Relation != nil:
		return plan.Explain(p.Relation)
	case p.Command.CreateTempView != nil:
		return plan.Explain(p.Command.CreateTempView.Input)
	case p.Command.InsertInto != nil:
		return plan.Explain(p.Command.InsertInto.Input)
	}
	return ""
}

// checkRedecode asserts that a decoded value renders without panicking and
// re-encodes to bytes that decode to the same value: the same rendering,
// and the same bytes when encoded once more.
func checkRedecode[T any](t *testing.T, what string, v T, encode func(T) ([]byte, error), decode func([]byte) (T, error), render func(T) string) {
	t.Helper()
	text := render(v)
	enc, err := encode(v)
	if err != nil {
		t.Fatalf("%s: re-encoding a decoded value: %v", what, err)
	}
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("%s: decoding a re-encoded value: %v", what, err)
	}
	if got := render(again); got != text {
		t.Fatalf("%s: re-decoded value differs:\n got %s\nwant %s", what, got, text)
	}
	if enc2, err := encode(again); err != nil || !bytes.Equal(enc2, enc) {
		t.Fatalf("%s: encoding is not a fixed point (%v)", what, err)
	}
}

// FuzzDecodePlan feeds the same bytes to the three decoders a Connect client
// reaches: DecodePlan, DecodeRootPlan and DecodeExpr. None may panic or
// recurse without bound, and whatever decodes carries every input it
// requires: it explains without panicking and re-encodes to bytes that
// decode to the same plan.
func FuzzDecodePlan(f *testing.F) {
	f.Add(mustEncode(f, samplePlan()))
	f.Add(mustEncode(f, filterChain(plan.MaxNestingDepth+1)))
	f.Add([]byte("\b\n")) // a bare Union
	var child, condless encoder
	if err := encodeRelField(&child, 2, plan.NewUnresolvedRelation("t")); err != nil {
		f.Fatal(err)
	}
	condless.Varint(1, relFilter)
	condless.Bytes(2, child.buf)
	f.Add(condless.buf) // a Filter without a condition
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
		if n, err := DecodePlan(data); err == nil {
			checkRedecode(t, "DecodePlan", n, EncodePlan, DecodePlan, plan.Explain)
		}
		if p, err := DecodeRootPlan(data); err == nil {
			checkRedecode(t, "DecodeRootPlan", p, EncodeRootPlan, DecodeRootPlan, explainRoot)
		}
		if e, err := DecodeExpr(data); err == nil {
			checkRedecode(t, "DecodeExpr", e, EncodeExpr, DecodeExpr, plan.Expr.String)
		}
	})
}
