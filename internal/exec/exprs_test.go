package exec

import (
	"runtime"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Select allocates for the rows a predicate keeps, not for every candidate
// row: a point predicate over a 5,000-row file, alone or after an
// unselective conjunct, costs well under the 40 KiB a full-size selection
// would, and an unselective one costs no more than one selection of its
// result.
func TestSelectAllocatesForKeptRows(t *testing.T) {
	const n = 5000
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	cols := []*types.Column{types.NewInt64Column(types.KindInt64, ids, nil)}
	schema := types.NewSchema(types.Field{Name: "id", Kind: types.KindInt64})
	id := &plan.BoundRef{Index: 0, Name: "id", Kind: types.KindInt64}
	point := plan.Eq(id, plan.Lit(types.Int64(4321)))
	all := plan.NewBinary(plan.OpGte, id, plan.Lit(types.Int64(0)))
	e := &Engine{}
	bytesPerSelect := func(conjuncts ...plan.Expr) (float64, int) {
		want := make([]types.Kind, len(conjuncts))
		for i := range want {
			want[i] = types.KindBool
		}
		progs := e.CompileExprs(nil, conjuncts, schema, want)
		sel, err := progs.Select(cols, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			_, _ = progs.Select(cols, n, nil)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, len(sel)
	}
	for _, c := range []struct {
		name      string
		conjuncts []plan.Expr
		rows      int
		maxBytes  float64
	}{
		{"point", []plan.Expr{point}, 1, 1 << 10},
		{"unselective then point", []plan.Expr{all, point}, 1, 1 << 10},
		{"unselective", []plan.Expr{all}, n, 8*n + 1<<10},
	} {
		got, rows := bytesPerSelect(c.conjuncts...)
		if rows != c.rows {
			t.Fatalf("%s: %d rows selected, want %d", c.name, rows, c.rows)
		}
		if got > c.maxBytes && !raceEnabled {
			t.Errorf("%s: Select allocated %.0f bytes per call, want at most %.0f", c.name, got, c.maxBytes)
		}
	}
}
