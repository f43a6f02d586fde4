package optimizer

import (
	"reflect"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// maskedSalesBarrier mimics the analyzer's barrier for a sales table with a
// row filter on region and a seller mask that reads the raw column
// (upper(seller)), the shape column pruning must see through.
func maskedSalesBarrier() *plan.SecureView {
	sc := salesScan()
	upper := &plan.ScalarFunc{Name: "upper", Args: []plan.Expr{ref(2, "seller", types.KindString)}, ResultKind: types.KindString}
	return &plan.SecureView{
		Name:        "main.default.sales",
		PolicyKinds: []string{"row_filter", "column_mask"},
		Child: &plan.Project{
			Exprs: []plan.Expr{
				ref(0, "amount", types.KindFloat64),
				ref(1, "date", types.KindString),
				plan.As(upper, "seller"),
				ref(3, "region", types.KindString),
			},
			Child:     &plan.Filter{Cond: eqStr(ref(3, "region", types.KindString), "US"), Child: sc},
			OutSchema: sc.TableSchema,
		},
	}
}

func projectOver(child plan.Node, idx ...int) *plan.Project {
	s := child.Schema()
	exprs := make([]plan.Expr, len(idx))
	for i, j := range idx {
		exprs[i] = ref(j, s.Fields[j].Name, s.Fields[j].Kind)
	}
	return &plan.Project{Exprs: exprs, Child: child, OutSchema: s.Project(idx)}
}

// barrierShape reports what the optimized barrier carries: the output names
// of its mask projection, which of them compute a mask, and the columns the
// scan under it reads.
func barrierShape(t *testing.T, n plan.Node) (outputs, masks, scanned []string) {
	t.Helper()
	var sv *plan.SecureView
	plan.Walk(n, func(x plan.Node) bool {
		if s, ok := x.(*plan.SecureView); ok && sv == nil {
			sv = s
		}
		return true
	})
	if sv == nil {
		t.Fatalf("barrier vanished:\n%s", plan.Explain(n))
	}
	if proj, ok := sv.Child.(*plan.Project); ok {
		for _, e := range proj.Exprs {
			outputs = append(outputs, plan.OutputName(e))
			if _, pass := e.(*plan.BoundRef); !pass {
				masks = append(masks, plan.OutputName(e))
			}
		}
	}
	plan.Walk(sv, func(x plan.Node) bool {
		switch s := x.(type) {
		case *plan.Scan:
			for _, f := range s.Schema().Fields {
				scanned = append(scanned, f.Name)
			}
		case *plan.RemoteScan:
			for _, f := range s.Schema().Fields {
				scanned = append(scanned, f.Name)
			}
		}
		return true
	})
	return outputs, masks, scanned
}

func TestPruneThroughMaskBarrier(t *testing.T) {
	count := func(child plan.Node) plan.Node {
		return &plan.Aggregate{
			Aggs:      []plan.Expr{&plan.AggFunc{Name: "count", ResultKind: types.KindInt64}},
			Child:     child,
			OutSchema: types.NewSchema(types.Field{Name: "n", Kind: types.KindInt64}),
		}
	}
	cases := []struct {
		name                     string
		query                    func(sv plan.Node) plan.Node
		outputs, masks, scanCols []string
	}{
		{
			name:     "project unmasked column skips the mask",
			query:    func(sv plan.Node) plan.Node { return projectOver(sv, 0) },
			outputs:  []string{"amount"},
			scanCols: []string{"amount", "region"},
		},
		{
			name:     "selected masked column is still masked",
			query:    func(sv plan.Node) plan.Node { return projectOver(sv, 2, 0) },
			outputs:  []string{"amount", "seller"},
			masks:    []string{"seller"},
			scanCols: []string{"amount", "seller", "region"},
		},
		{
			name: "aggregate",
			query: func(sv plan.Node) plan.Node {
				return &plan.Aggregate{
					GroupBy: []plan.Expr{ref(1, "date", types.KindString)},
					Aggs: []plan.Expr{&plan.AggFunc{Name: "sum", Arg: ref(0, "amount", types.KindFloat64),
						ResultKind: types.KindFloat64}},
					Child: sv,
					OutSchema: types.NewSchema(types.Field{Name: "date", Kind: types.KindString},
						types.Field{Name: "s", Kind: types.KindFloat64}),
				}
			},
			outputs:  []string{"amount", "date"},
			scanCols: []string{"amount", "date", "region"},
		},
		{
			name: "filter above the barrier keeps its column",
			query: func(sv plan.Node) plan.Node {
				return projectOver(&plan.Filter{Cond: eqStr(ref(2, "seller", types.KindString), "ANN"), Child: sv}, 0)
			},
			outputs:  []string{"amount", "seller"},
			masks:    []string{"seller"},
			scanCols: []string{"amount", "seller", "region"},
		},
		{
			name:     "count(*) keeps one pass-through column",
			query:    count,
			outputs:  []string{"amount"},
			scanCols: []string{"amount", "region"},
		},
		{
			name: "sort and limit above a pruned projection",
			query: func(sv plan.Node) plan.Node {
				return &plan.Limit{N: 2, Child: &plan.Sort{
					Orders: []plan.SortOrder{{Expr: ref(0, "date", types.KindString)}},
					Child:  projectOver(sv, 1, 3),
				}}
			},
			outputs:  []string{"date", "region"},
			scanCols: []string{"date", "region"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := Optimize(tc.query(maskedSalesBarrier()), DefaultOptions())
			outputs, masks, scanned := barrierShape(t, out)
			if !reflect.DeepEqual(outputs, tc.outputs) || !reflect.DeepEqual(masks, tc.masks) ||
				!reflect.DeepEqual(scanned, tc.scanCols) {
				t.Fatalf("barrier carries outputs %v (masks %v) over scan %v; want %v (masks %v) over %v\n%s",
					outputs, masks, scanned, tc.outputs, tc.masks, tc.scanCols, plan.Explain(out))
			}
			assertBound(t, out)
		})
	}
}

// assertBound checks every ordinal in the plan against the schema it is
// evaluated over, names included: a prune remap bug misbinds silently.
func assertBound(t *testing.T, n plan.Node) {
	t.Helper()
	check := func(e plan.Expr, s *types.Schema) {
		plan.WalkExpr(e, func(x plan.Expr) bool {
			if b, ok := x.(*plan.BoundRef); ok {
				if b.Index < 0 || b.Index >= s.Len() || s.Fields[b.Index].Name != b.Name {
					t.Errorf("%s misbound over %v\n%s", b, s.Fields, plan.Explain(n))
				}
			}
			return true
		})
	}
	plan.Walk(n, func(x plan.Node) bool {
		switch t := x.(type) {
		case *plan.Project:
			for _, e := range t.Exprs {
				check(e, t.Child.Schema())
			}
		case *plan.Filter:
			check(t.Cond, t.Child.Schema())
		case *plan.Aggregate:
			for _, e := range append(append([]plan.Expr{}, t.GroupBy...), t.Aggs...) {
				check(e, t.Child.Schema())
			}
		case *plan.Sort:
			for _, o := range t.Orders {
				check(o.Expr, t.Child.Schema())
			}
		case *plan.Scan:
			for _, e := range t.PushedFilters {
				check(e, t.Schema())
			}
		}
		return true
	})
}

func TestPruneKeepsMaskWhileRawColumnIsRead(t *testing.T) {
	// Mask region too: the row filter reads raw region, so region stays in
	// the barrier and its mask must stay with it even though nothing above
	// selects region. A mask is dropped only when its raw column leaves.
	sv := maskedSalesBarrier()
	proj := sv.Child.(*plan.Project)
	proj.Exprs[3] = plan.As(plan.Lit(types.String("R")), "region")
	out := Optimize(projectOver(sv, 0), DefaultOptions())
	outputs, masks, scanned := barrierShape(t, out)
	if !reflect.DeepEqual(outputs, []string{"amount", "region"}) || !reflect.DeepEqual(masks, []string{"region"}) ||
		!reflect.DeepEqual(scanned, []string{"amount", "region"}) {
		t.Fatalf("outputs %v masks %v scan %v\n%s", outputs, masks, scanned, plan.Explain(out))
	}

	// A mask kept that way keeps what it reads: region's mask reads date,
	// so date is scanned although nothing above selects it.
	sv = maskedSalesBarrier()
	proj = sv.Child.(*plan.Project)
	proj.Exprs[3] = plan.As(&plan.Case{
		Whens:      []plan.WhenClause{{Cond: eqStr(ref(1, "date", types.KindString), "2024-12-01"), Then: ref(3, "region", types.KindString)}},
		Else:       plan.Lit(types.String("R")),
		ResultKind: types.KindString,
	}, "region")
	out = Optimize(projectOver(sv, 0), DefaultOptions())
	outputs, masks, scanned = barrierShape(t, out)
	if !reflect.DeepEqual(outputs, []string{"amount", "region"}) || !reflect.DeepEqual(masks, []string{"region"}) ||
		!reflect.DeepEqual(scanned, []string{"amount", "date", "region"}) {
		t.Fatalf("outputs %v masks %v scan %v\n%s", outputs, masks, scanned, plan.Explain(out))
	}
	assertBound(t, out)
}

func TestPruneThroughRowFilterOnlyBarrier(t *testing.T) {
	sv := &plan.SecureView{
		Name:        "main.default.sales",
		PolicyKinds: []string{"row_filter"},
		Child:       &plan.Filter{Cond: eqStr(ref(3, "region", types.KindString), "US"), Child: salesScan()},
	}
	out := Optimize(projectOver(sv, 0), DefaultOptions())
	_, _, scanned := barrierShape(t, out)
	if !reflect.DeepEqual(scanned, []string{"amount", "region"}) {
		t.Fatalf("scan under a row-filter-only barrier reads %v\n%s", scanned, plan.Explain(out))
	}
	assertBound(t, out)
}

func TestPruneLeavesViewBarrierAlone(t *testing.T) {
	body := projectOver(salesScan(), 0, 2)
	sv := &plan.SecureView{Name: "main.default.v", PolicyKinds: []string{"view"}, Child: body}
	out := Optimize(projectOver(sv, 0), DefaultOptions())
	outputs, masks, _ := barrierShape(t, out)
	if !reflect.DeepEqual(outputs, []string{"amount", "seller"}) || masks != nil {
		t.Fatalf("view barrier was rewritten: outputs %v\n%s", outputs, plan.Explain(out))
	}
}

func TestPruneThroughBarrierOverRemoteScan(t *testing.T) {
	// A mask barrier over an eFGAC leaf: the pruned columns become the
	// remote subquery's pushed projection.
	sv := maskedSalesBarrier()
	proj := sv.Child.(*plan.Project)
	proj.Child = &plan.RemoteScan{Relation: "main.default.sales", OutSchema: salesScan().TableSchema, PushedLimit: -1}
	out := Optimize(projectOver(sv, 2), DefaultOptions())
	outputs, masks, scanned := barrierShape(t, out)
	if !reflect.DeepEqual(outputs, []string{"seller"}) || !reflect.DeepEqual(masks, []string{"seller"}) ||
		!reflect.DeepEqual(scanned, []string{"seller"}) {
		t.Fatalf("outputs %v masks %v remote %v\n%s", outputs, masks, scanned, plan.Explain(out))
	}
	assertBound(t, out)
}
