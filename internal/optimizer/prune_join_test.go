package optimizer

import (
	"reflect"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Column pruning descends through inner and cross joins: each side carries
// only the columns used above the join or read by its condition, a governed
// side drops the masks nobody reads, and the condition and everything above
// bind to the narrowed layout. An outer join is left whole.
func TestPruneThroughJoin(t *testing.T) {
	days := func() *plan.Scan {
		return &plan.Scan{Table: "main.default.days", Version: -1, TableSchema: types.NewSchema(
			types.Field{Name: "day", Kind: types.KindString},
			types.Field{Name: "label", Kind: types.KindString},
			types.Field{Name: "note", Kind: types.KindString},
		)}
	}
	// SELECT d.label, SUM(s.amount) FROM sales s <type> JOIN days d
	// ON s.date = d.day GROUP BY d.label; sales is masked and row-filtered.
	query := func(jt plan.JoinType) plan.Node {
		j := &plan.Join{Type: jt, L: maskedSalesBarrier(), R: days(),
			Cond: &plan.Binary{Op: plan.OpEq, L: ref(1, "date", types.KindString), R: ref(4, "day", types.KindString), ResultKind: types.KindBool}}
		return &plan.Aggregate{
			GroupBy:   []plan.Expr{ref(5, "label", types.KindString)},
			Aggs:      []plan.Expr{&plan.AggFunc{Name: "sum", Arg: ref(0, "amount", types.KindFloat64), ResultKind: types.KindFloat64}},
			Child:     j,
			OutSchema: types.NewSchema(types.Field{Name: "label", Kind: types.KindString}, types.Field{Name: "s", Kind: types.KindFloat64}),
		}
	}
	scanCols := func(n plan.Node, table string) []string {
		var cols []string
		plan.Walk(n, func(x plan.Node) bool {
			if s, ok := x.(*plan.Scan); ok && s.Table == table {
				for _, f := range s.Schema().Fields {
					cols = append(cols, f.Name)
				}
			}
			return true
		})
		return cols
	}
	for _, tc := range []struct {
		jt                      plan.JoinType
		outputs, masks, scanned []string
		daysCols                []string
	}{
		{plan.JoinInner, []string{"amount", "date"}, nil, []string{"amount", "date", "region"}, []string{"day", "label"}},
		{plan.JoinLeft, []string{"amount", "date", "seller", "region"}, []string{"seller"},
			[]string{"amount", "date", "seller", "region"}, []string{"day", "label", "note"}},
	} {
		out := Optimize(query(tc.jt), DefaultOptions())
		outputs, masks, scanned := barrierShape(t, out)
		if !reflect.DeepEqual(outputs, tc.outputs) || !reflect.DeepEqual(masks, tc.masks) || !reflect.DeepEqual(scanned, tc.scanned) {
			t.Fatalf("%s: barrier carries %v (masks %v) over scan %v; want %v (masks %v) over %v\n%s",
				tc.jt, outputs, masks, scanned, tc.outputs, tc.masks, tc.scanned, plan.Explain(out))
		}
		if got := scanCols(out, "main.default.days"); !reflect.DeepEqual(got, tc.daysCols) {
			t.Fatalf("%s: days scan reads %v, want %v\n%s", tc.jt, got, tc.daysCols, plan.Explain(out))
		}
		assertBound(t, out)
		plan.Walk(out, func(x plan.Node) bool {
			if j, ok := x.(*plan.Join); ok {
				plan.WalkExpr(j.Cond, func(e plan.Expr) bool {
					if b, ok := e.(*plan.BoundRef); ok {
						if s := j.L.Schema().Concat(j.R.Schema()); b.Index >= s.Len() || s.Fields[b.Index].Name != b.Name {
							t.Errorf("%s: join condition ref %s misbound over %v", tc.jt, b, s.Fields)
						}
					}
					return true
				})
			}
			return true
		})
	}
}
