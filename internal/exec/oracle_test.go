package exec

import (
	"fmt"

	"lakeguard/internal/eval/evaltest"
	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// The row-at-a-time oracle: the reference the vectorized join, aggregation
// and DISTINCT operators are checked against. It lives only in tests, so
// production has one operator per node and no switch to select another.
//
// oracleRun takes an optimized plan, replaces every Join, Aggregate and
// Distinct bottom-up with a LocalRelation holding a naive result computed
// over its children's engine output, and runs what is left on the engine.
// The naive results are nested loops over boxed rows: joins test equi keys
// the way a hash join must (NULL never matches, keys of different hash
// classes never match, so NaN pairs only with NaN), then the residual
// conjuncts in order, each only on the pairs the earlier ones kept; groups
// and DISTINCT rows form by Value.Equal in first-occurrence order; float
// sums add in stream order.
func oracleRun(e *Engine, qc *QueryContext, p plan.Node) (*types.Batch, error) {
	var firstErr error
	rewritten := plan.Transform(p, func(n plan.Node) plan.Node {
		if firstErr != nil {
			return n
		}
		var out *types.Batch
		var err error
		switch t := n.(type) {
		case *plan.Join:
			out, err = oracleJoin(e, qc, t)
		case *plan.Aggregate:
			out, err = oracleAggregate(e, qc, t)
		case *plan.Distinct:
			out, err = oracleDistinct(e, qc, t)
		default:
			return n
		}
		if err != nil {
			firstErr = err
			return n
		}
		return &plan.LocalRelation{Data: out}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return e.ExecuteToBatch(qc, rewritten)
}

func engineRows(e *Engine, qc *QueryContext, p plan.Node) ([][]types.Value, error) {
	b, err := e.ExecuteToBatch(qc, p)
	if err != nil {
		return nil, err
	}
	return b.Rows(), nil
}

func oracleEvalAll(exprs []plan.Expr, row []types.Value, qc *QueryContext) ([]types.Value, error) {
	rowFn := func(c int) types.Value { return row[c] }
	out := make([]types.Value, len(exprs))
	for i, x := range exprs {
		v, err := evaltest.Eval(x, rowFn, qc.Eval)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func oracleJoin(e *Engine, qc *QueryContext, j *plan.Join) (*types.Batch, error) {
	if j.Cond != nil && plan.ExprContains(j.Cond, func(x plan.Expr) bool {
		_, ok := x.(*plan.UDFCall)
		return ok
	}) {
		return nil, fmt.Errorf("oracle: UDF calls are not supported in join conditions")
	}
	left, err := engineRows(e, qc, j.L)
	if err != nil {
		return nil, err
	}
	right, err := engineRows(e, qc, j.R)
	if err != nil {
		return nil, err
	}
	leftLen := j.L.Schema().Len()
	leftKeys, rightKeys, residual := extractEquiKeys(j.Cond, leftLen)
	rkeys := make([][]types.Value, len(right))
	rhash := make([]uint64, len(right))
	for i, r := range right {
		if rkeys[i], err = oracleEvalAll(rightKeys, r, qc); err != nil {
			return nil, err
		}
		rhash[i] = oracleHashRow(rkeys[i])
	}
	schema := j.Schema()
	nulls := func(from, to int) []types.Value {
		out := make([]types.Value, 0, to-from)
		for c := from; c < to; c++ {
			out = append(out, types.Null(schema.Fields[c].Kind))
		}
		return out
	}
	bb := types.NewBatchBuilder(schema, len(left))
	rightUsed := make([]bool, len(right))
	var l, r []types.Value
	combined := func(i int) types.Value {
		if i < leftLen {
			return l[i]
		}
		return r[i-leftLen]
	}
	for _, l = range left {
		lk, err := oracleEvalAll(leftKeys, l, qc)
		if err != nil {
			return nil, err
		}
		lhash := oracleHashRow(lk)
		matched := false
		for ri := range right {
			if r = right[ri]; lhash != rhash[ri] || !oracleKeysMatch(lk, rkeys[ri]) {
				continue
			}
			ok := true
			for _, c := range residual {
				if ok, err = evaltest.EvalPredicate(c, combined, qc.Eval); err != nil {
					return nil, err
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			matched = true
			rightUsed[ri] = true
			if j.Type != plan.JoinLeftSemi && j.Type != plan.JoinLeftAnti {
				bb.AppendRow(append(append([]types.Value{}, l...), r...))
			}
		}
		switch {
		case j.Type == plan.JoinLeftSemi && matched, j.Type == plan.JoinLeftAnti && !matched:
			bb.AppendRow(l)
		case (j.Type == plan.JoinLeft || j.Type == plan.JoinFull) && !matched:
			bb.AppendRow(append(append([]types.Value{}, l...), nulls(leftLen, schema.Len())...))
		}
	}
	if j.Type == plan.JoinRight || j.Type == plan.JoinFull {
		for ri, used := range rightUsed {
			if !used {
				bb.AppendRow(append(nulls(0, leftLen), right[ri]...))
			}
		}
	}
	return bb.Build(), nil
}

// oracleKeysMatch is hash-join key equality for keys of equal hash: no
// NULLs, and Compare equal.
func oracleKeysMatch(a, b []types.Value) bool {
	for i := range a {
		if a[i].Null || b[i].Null {
			return false
		}
		if c, ok := a[i].Compare(b[i]); !ok || c != 0 {
			return false
		}
	}
	return true
}

func oracleHashRow(row []types.Value) uint64 {
	var h uint64 = 1469598103934665603
	for _, v := range row {
		h = (h ^ v.Hash()) * 1099511628211
	}
	return h
}

func oracleRowsEqual(a, b []types.Value) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// oracleGroups assigns each key row a group in first-occurrence order.
type oracleGroups struct {
	byHash map[uint64][]int
	keys   [][]types.Value
}

// find returns key's group and whether this call created it.
func (g *oracleGroups) find(key []types.Value) (int, bool) {
	if g.byHash == nil {
		g.byHash = map[uint64][]int{}
	}
	h := oracleHashRow(key)
	for _, gi := range g.byHash[h] {
		if oracleRowsEqual(g.keys[gi], key) {
			return gi, false
		}
	}
	g.byHash[h] = append(g.byHash[h], len(g.keys))
	g.keys = append(g.keys, key)
	return len(g.keys) - 1, true
}

func oracleDistinct(e *Engine, qc *QueryContext, d *plan.Distinct) (*types.Batch, error) {
	rows, err := engineRows(e, qc, d.Child)
	if err != nil {
		return nil, err
	}
	var g oracleGroups
	bb := types.NewBatchBuilder(d.Schema(), len(rows))
	for _, r := range rows {
		if _, created := g.find(r); created {
			bb.AppendRow(r)
		}
	}
	return bb.Build(), nil
}

// oracleAcc accumulates one aggregate for one group.
type oracleAcc struct {
	count    int64
	sumI     int64
	sumF     float64
	min, max types.Value
	seen     oracleGroups // DISTINCT arguments
	nonNull  bool
}

func oracleAggregate(e *Engine, qc *QueryContext, a *plan.Aggregate) (*types.Batch, error) {
	rows, err := engineRows(e, qc, a.Child)
	if err != nil {
		return nil, err
	}
	aggs := make([]*plan.AggFunc, len(a.Aggs))
	for i, x := range a.Aggs {
		af, ok := x.(*plan.AggFunc)
		if !ok {
			return nil, fmt.Errorf("oracle: aggregate slot %d is %T", i, x)
		}
		aggs[i] = af
	}
	var groups oracleGroups
	var accs [][]oracleAcc
	for _, r := range rows {
		key, err := oracleEvalAll(a.GroupBy, r, qc)
		if err != nil {
			return nil, err
		}
		gi, created := groups.find(key)
		if created {
			accs = append(accs, make([]oracleAcc, len(aggs)))
		}
		for ai, af := range aggs {
			v := types.Int64(1) // COUNT(*)
			if af.Arg != nil {
				if v, err = evaltest.Eval(af.Arg, func(c int) types.Value { return r[c] }, qc.Eval); err != nil {
					return nil, err
				}
			}
			accs[gi][ai].add(af, v)
		}
	}
	// Global aggregation yields one row even over empty input.
	if len(groups.keys) == 0 && len(a.GroupBy) == 0 {
		groups.keys = append(groups.keys, nil)
		accs = append(accs, make([]oracleAcc, len(aggs)))
	}
	schema := a.Schema()
	bb := types.NewBatchBuilder(schema, len(groups.keys))
	for gi, key := range groups.keys {
		row := append([]types.Value{}, key...)
		for ai, af := range aggs {
			row = append(row, accs[gi][ai].result(af))
		}
		bb.AppendRow(row)
	}
	return bb.Build(), nil
}

func (st *oracleAcc) add(af *plan.AggFunc, v types.Value) {
	if v.Null {
		return // SQL aggregates skip NULLs
	}
	if af.Distinct {
		if _, created := st.seen.find([]types.Value{v}); !created {
			return
		}
	}
	st.nonNull = true
	switch af.Name {
	case "count":
		st.count++
	case "sum", "avg":
		st.count++
		if v.Kind == types.KindInt64 {
			st.sumI += v.I
		}
		st.sumF += v.AsFloat64()
	case "min":
		if st.count == 0 {
			st.min = v
		} else if c, ok := v.Compare(st.min); ok && c < 0 {
			st.min = v
		}
		st.count++
	case "max":
		if st.count == 0 {
			st.max = v
		} else if c, ok := v.Compare(st.max); ok && c > 0 {
			st.max = v
		}
		st.count++
	}
}

func (st *oracleAcc) result(af *plan.AggFunc) types.Value {
	switch af.Name {
	case "count":
		return types.Int64(st.count)
	case "sum":
		if !st.nonNull {
			return types.Null(af.ResultKind)
		}
		if af.ResultKind == types.KindInt64 {
			return types.Int64(st.sumI)
		}
		return types.Float64(st.sumF)
	case "avg":
		if st.count == 0 {
			return types.Null(types.KindFloat64)
		}
		return types.Float64(st.sumF / float64(st.count))
	case "min":
		if !st.nonNull {
			return types.Null(af.ResultKind)
		}
		return st.min
	case "max":
		if !st.nonNull {
			return types.Null(af.ResultKind)
		}
		return st.max
	}
	return types.Null(af.ResultKind)
}
