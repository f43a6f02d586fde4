package exec

import (
	"math"
	"runtime"
	"testing"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// Select narrows into the caller's scratch: once the scratch has grown to
// the batch, a call allocates nothing, whether the predicate keeps one row
// of a 5,000-row file, alone or after an unselective conjunct, or keeps
// them all. Allocation is read process-wide, so the smallest of several
// windows is the one compared: another goroutine's allocation can only add
// to a window.
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
		var sc SelScratch
		sel, err := progs.Select(cols, n, nil, &sc)
		if err != nil {
			t.Fatal(err)
		}
		rows := len(sel)
		const windows, runs = 5, 200
		least := math.Inf(1)
		for w := 0; w < windows; w++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				_, _ = progs.Select(cols, n, nil, &sc)
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least, rows
	}
	for _, c := range []struct {
		name      string
		conjuncts []plan.Expr
		rows      int
		maxBytes  float64
	}{
		{"point", []plan.Expr{point}, 1, 1 << 10},
		{"unselective then point", []plan.Expr{all, point}, 1, 1 << 10},
		{"unselective", []plan.Expr{all}, n, 1 << 10},
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
