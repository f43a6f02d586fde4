package exec

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/eval"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/sql"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

var sortSchema = types.NewSchema(
	types.Field{Name: "id", Kind: types.KindInt64},
	types.Field{Name: "g", Kind: types.KindInt64, Nullable: true},
	types.Field{Name: "f", Kind: types.KindFloat64, Nullable: true},
	types.Field{Name: "s", Kind: types.KindString, Nullable: true},
)

// sortInput splits n rows over a few batches of uneven size. Keys repeat
// (ties), carry NULLs, and f holds NaN only when withNaN is set; id is the
// arrival order, so it shows whether ties kept it.
func sortInput(r *rand.Rand, n int, withNaN bool) []*types.Batch {
	var out []*types.Batch
	for id := 0; id < n; {
		size := 1 + r.Intn(9)
		bb := types.NewBatchBuilder(sortSchema, size)
		for j := 0; j < size && id < n; j, id = j+1, id+1 {
			row := []types.Value{types.Int64(int64(id)), types.Null(types.KindInt64), types.Null(types.KindFloat64), types.Null(types.KindString)}
			if r.Intn(6) > 0 {
				row[1] = types.Int64(int64(r.Intn(4)))
			}
			switch {
			case withNaN && r.Intn(8) == 0:
				row[2] = types.Float64(math.NaN())
			case r.Intn(6) > 0:
				row[2] = types.Float64(float64(r.Intn(5)) / 2)
			}
			if r.Intn(6) > 0 {
				row[3] = types.String([]string{"", "a", "b", "ab"}[r.Intn(4)])
			}
			bb.AppendRow(row)
		}
		out = append(out, bb.Build())
	}
	return out
}

// stableSortRows is the reference: every row boxed, sorted by
// Value.Compare with sort.SliceStable, then LIMIT/OFFSET applied.
func stableSortRows(batches []*types.Batch, orders []plan.SortOrder, limit, offset int) [][]types.Value {
	var rows [][]types.Value
	for _, b := range batches {
		rows = append(rows, b.Rows()...)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for _, ord := range orders {
			i := ord.Expr.(*plan.BoundRef).Index
			c, _ := rows[a][i].Compare(rows[b][i])
			if c != 0 {
				return (c < 0) != ord.Desc
			}
		}
		return false
	})
	if limit < 0 {
		return rows
	}
	rows = rows[min(offset, len(rows)):]
	return rows[:min(limit, len(rows))]
}

func sortPlan(batches []*types.Batch, orders []plan.SortOrder, limit, offset int) plan.Node {
	var in plan.Node = &plan.LocalRelation{Data: batches[0]}
	for _, b := range batches[1:] {
		in = &plan.Union{L: in, R: &plan.LocalRelation{Data: b}}
	}
	var p plan.Node = &plan.Sort{Orders: orders, Child: in}
	if limit >= 0 {
		p = &plan.Limit{N: int64(limit), Offset: int64(offset), Child: p}
	}
	return p
}

func sameRows(got *types.Batch, want [][]types.Value) bool {
	if got.NumRows() != len(want) {
		return false
	}
	for i, w := range want {
		for c, v := range got.Row(i) {
			if v.Null != w[c].Null || (!v.Null && v.String() != w[c].String()) {
				return false
			}
		}
	}
	return true
}

// The bounded sort under LIMIT/OFFSET returns exactly the rows the stable
// full sort followed by LIMIT/OFFSET returns: NULL keys, ties in arrival
// order, DESC, several keys, k = 0, k past the input, and NaN keys.
func TestBoundedSortMatchesStableSort(t *testing.T) {
	e := &Engine{}
	ref := func(i int, k types.Kind) plan.Expr {
		return &plan.BoundRef{Index: i, Name: sortSchema.Fields[i].Name, Kind: k}
	}
	keySets := [][]plan.SortOrder{
		{{Expr: ref(1, types.KindInt64)}},
		{{Expr: ref(1, types.KindInt64), Desc: true}},
		{{Expr: ref(2, types.KindFloat64), Desc: true}, {Expr: ref(3, types.KindString)}},
		{{Expr: ref(3, types.KindString), Desc: true}, {Expr: ref(1, types.KindInt64)}, {Expr: ref(2, types.KindFloat64)}},
	}
	r := rand.New(rand.NewSource(27))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(60)
		batches := sortInput(r, n, trial%5 == 0)
		orders := keySets[trial%len(keySets)]
		limit, offset := r.Intn(n+5), 0
		switch trial % 4 {
		case 0:
			limit = 0
		case 1:
			offset = r.Intn(n + 3)
		case 2:
			limit = n + r.Intn(4) // k > n
		}
		for _, lim := range []int{limit, -1} {
			qc := &QueryContext{Eval: &eval.Context{User: admin}}
			got, err := e.ExecuteToBatch(qc, sortPlan(batches, orders, lim, offset))
			if err != nil {
				t.Fatal(err)
			}
			if want := stableSortRows(batches, orders, lim, offset); !sameRows(got, want) {
				t.Fatalf("trial %d (n %d, limit %d offset %d, keys %v): sort diverges from the stable reference\ngot:\n%s\nwant %d rows: %v",
					trial, n, lim, offset, orders, got.String(), len(want), want)
			}
		}
	}
}

// ORDER BY ... LIMIT stays an instrumented Sort node under the Limit: the
// query profile, EXPLAIN ANALYZE and the exec.op.sort_ms bucket all read it.
func TestProfiledTopNReportsSort(t *testing.T) {
	w := newWorld(t)
	q := "SELECT seller, amount FROM sales ORDER BY amount DESC LIMIT 2"
	b, prof := w.profiledQuery(t, q)
	if b.NumRows() != 2 || b.Cols[1].Float64(0) != 300 || b.Cols[1].Float64(1) != 200 {
		t.Fatalf("top 2:\n%s", b.String())
	}
	limit := prof.Root()
	if limit == nil || limit.Name != "Limit" || len(limit.Children()) != 1 {
		t.Fatalf("profile root is not a Limit over one child:\n%s", prof.Render())
	}
	srt := limit.Children()[0]
	if srt.Name != "Sort" || srt.Rows() != 2 || srt.VecBatches() == 0 {
		t.Fatalf("Limit's child is not a vectorized Sort emitting 2 rows:\n%s", prof.Render())
	}
	var rowsIn int64
	for _, c := range srt.Children() {
		rowsIn += c.Rows()
	}
	if rowsIn != 6 {
		t.Fatalf("Sort read %d rows, want all 6:\n%s", rowsIn, prof.Render())
	}
	if !strings.Contains(prof.Render(), "Sort (1 keys)  [wall ") {
		t.Fatalf("EXPLAIN ANALYZE has no Sort line:\n%s", prof.Render())
	}
}

func (w *world) profiledQuery(t *testing.T, sqlText string) (*types.Batch, *telemetry.Profile) {
	t.Helper()
	q, err := sql.ParseQuery(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	resolved, err := analyzer.New(w.cat, adminCtx()).Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	p := optimizer.Optimize(resolved, optimizer.DefaultOptions())
	qc := NewQueryContext(w.cat, adminCtx())
	qc.Profile = telemetry.NewProfile()
	b, err := w.engine.ExecuteToBatch(qc, p)
	if err != nil {
		t.Fatal(err)
	}
	return b, qc.Profile
}

// Edge shapes of the sort: no input rows, bounded and not, and a NULL-typed
// column carried through a top-N.
func TestSortEdgeShapes(t *testing.T) {
	w := newWorld(t)
	for q, want := range map[string]int{
		"SELECT amount FROM sales WHERE amount > 1000 ORDER BY amount LIMIT 3": 0,
		"SELECT amount FROM sales WHERE amount > 1000 ORDER BY amount":         0,
		"SELECT NULL AS x, amount FROM sales ORDER BY amount DESC LIMIT 2":     2,
	} {
		b := w.query(t, adminCtx(), q)
		if b.NumRows() != want {
			t.Fatalf("%s: %d rows, want %d\n%s", q, b.NumRows(), want, b.String())
		}
		if want == 2 && (b.Cols[1].Float64(0) != 300 || b.Cols[1].Float64(1) != 200 || !b.Cols[0].IsNull(0)) {
			t.Fatalf("%s:\n%s", q, b.String())
		}
	}
}
