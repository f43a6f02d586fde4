package exec

import (
	"context"
	"fmt"
	"io"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// aggInput is one batch with its group-key and aggregate-argument columns
// already evaluated.
type aggInput struct {
	n       int
	keyCols []*types.Column
	argCols []*types.Column
}

// aggOp is a hash aggregate over group keys with collision-checked buckets.
//
// Parallelism note: with Parallelism > 1 and UDF-free expressions, the
// expensive per-batch work (group-key and argument evaluation) runs on
// exchange workers, but accumulation stays serial over batches in input
// order. Accumulating row-by-row in stream order keeps float sums
// bit-identical to serial execution at any worker count — merging per-worker
// partial sums would reassociate float additions.
type aggOp struct {
	child    operator
	qc       *QueryContext
	engine   *Engine
	node     *plan.Aggregate
	groupBE  *batchEval // evaluates GROUP BY expressions (may contain UDFs)
	argBE    *batchEval // evaluates aggregate argument expressions
	aggs     []*plan.AggFunc
	parallel int // exchange workers for input evaluation (<=1 = serial)
	done     bool
}

func (e *Engine) newAggOp(qc *QueryContext, node *plan.Aggregate, child operator) (operator, error) {
	aggs := make([]*plan.AggFunc, len(node.Aggs))
	argExprs := make([]plan.Expr, 0, len(node.Aggs))
	for i, a := range node.Aggs {
		af, ok := a.(*plan.AggFunc)
		if !ok {
			return nil, fmt.Errorf("exec: aggregate slot %d is %T, expected AggFunc", i, a)
		}
		aggs[i] = af
		if af.Arg != nil {
			argExprs = append(argExprs, af.Arg)
		} else {
			argExprs = append(argExprs, plan.Lit(types.Int64(1))) // COUNT(*)
		}
	}
	in := node.Child.Schema()
	op := &aggOp{
		child: child, qc: qc, engine: e, node: node,
		groupBE: e.newBatchEval(qc, node.GroupBy, in, nil), argBE: e.newBatchEval(qc, argExprs, in, nil),
		aggs: aggs,
	}
	if w := e.workers(); w > 1 && !exprsHaveUDF(node.GroupBy) && !exprsHaveUDF(argExprs) {
		op.parallel = w
	}
	if !e.DisableVecExec {
		// Vectorized path; the row-at-a-time aggOp stays as the reference
		// implementation the equivalence harness compares against.
		return newVecAggOp(op), nil
	}
	return op, nil
}

// evalInput turns one child batch into evaluated key/argument columns.
func evalAggInput(b *types.Batch, groupBE, argBE *batchEval) (*aggInput, error) {
	keyCols, err := groupBE.run(b)
	if err != nil {
		return nil, err
	}
	argCols, err := argBE.run(b)
	if err != nil {
		return nil, err
	}
	return &aggInput{n: b.NumRows(), keyCols: keyCols, argCols: argCols}, nil
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	min, max types.Value
	seen     map[uint64][]types.Value // DISTINCT tracking
	nonNull  bool
}

type groupEntry struct {
	key    []types.Value
	states []aggState
}

func (o *aggOp) Next() (*types.Batch, error) {
	if o.done {
		return nil, io.EOF
	}
	o.done = true

	pull, cleanup, err := o.inputStream()
	if err != nil {
		return nil, err
	}
	defer cleanup()

	groups := map[uint64][]*groupEntry{}
	var order []*groupEntry
	for {
		in, err := pull()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < in.n; i++ {
			key := make([]types.Value, len(in.keyCols))
			for k, col := range in.keyCols {
				key[k] = col.Value(i)
			}
			h := hashRow(key)
			var entry *groupEntry
			for _, g := range groups[h] {
				if rowsEqual(g.key, key) {
					entry = g
					break
				}
			}
			if entry == nil {
				entry = &groupEntry{key: key, states: make([]aggState, len(o.aggs))}
				groups[h] = append(groups[h], entry)
				order = append(order, entry)
			}
			for ai, af := range o.aggs {
				v := in.argCols[ai].Value(i)
				o.accumulate(&entry.states[ai], af, v)
			}
		}
	}

	// Global aggregation (no GROUP BY) always yields one row, even over
	// empty input (COUNT(*) = 0); grouped aggregation yields no rows.
	if len(order) == 0 && len(o.node.GroupBy) == 0 {
		entry := &groupEntry{key: nil, states: make([]aggState, len(o.aggs))}
		order = append(order, entry)
	}

	schema := o.node.Schema()
	bb := types.NewBatchBuilder(schema, len(order))
	for _, g := range order {
		row := make([]types.Value, 0, schema.Len())
		row = append(row, g.key...)
		for ai, af := range o.aggs {
			row = append(row, o.finalize(&g.states[ai], af))
		}
		bb.AppendRow(row)
	}
	return bb.Build(), nil
}

// inputStream returns an ordered stream of evaluated inputs: an exchange
// over the child when parallel, a direct pull otherwise.
func (o *aggOp) inputStream() (pull func() (*aggInput, error), cleanup func(), err error) {
	if o.parallel <= 1 {
		return func() (*aggInput, error) {
			b, err := o.child.Next()
			if err != nil {
				return nil, err
			}
			return evalAggInput(b, o.groupBE, o.argBE)
		}, func() {}, nil
	}
	ex, err := newExchange(o.qc.GoContext(), o.parallel, batchSource(o.child),
		func() (func(context.Context, *types.Batch) (*aggInput, error), error) {
			groupBE, argBE := o.groupBE.worker(), o.argBE.worker()
			return func(_ context.Context, b *types.Batch) (*aggInput, error) {
				return evalAggInput(b, groupBE, argBE)
			}, nil
		}, nil)
	if err != nil {
		return nil, nil, err
	}
	return ex.Next, func() { ex.Close() }, nil
}

func (o *aggOp) Close() error { return o.child.Close() }

func (o *aggOp) accumulate(st *aggState, af *plan.AggFunc, v types.Value) {
	if af.Arg != nil && v.Null {
		return // SQL aggregates skip NULLs
	}
	if af.Distinct {
		if st.seen == nil {
			st.seen = map[uint64][]types.Value{}
		}
		h := v.Hash()
		for _, prev := range st.seen[h] {
			if prev.Equal(v) {
				return
			}
		}
		st.seen[h] = append(st.seen[h], v)
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
		} else if cmp, ok := v.Compare(st.min); ok && cmp < 0 {
			st.min = v
		}
		st.count++
	case "max":
		if st.count == 0 {
			st.max = v
		} else if cmp, ok := v.Compare(st.max); ok && cmp > 0 {
			st.max = v
		}
		st.count++
	}
}

func (o *aggOp) finalize(st *aggState, af *plan.AggFunc) types.Value {
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
