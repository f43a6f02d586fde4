// Morsel-driven operator wiring: how the engine decides which parts of a
// plan run across workers and how those parts keep serial semantics. The
// rules are:
//
//   - Parallelism changes operators, never plan shape: the optimizer and the
//     security verifier see the exact same plan regardless of worker count.
//   - Every fork between inline and parallel work is one stream (exchange.go)
//     whose worker count streamWorkers decides; results are gathered in
//     morsel order, so every operator emits the same batch sequence serial
//     execution would (byte-identical output).
//   - Expression stages with UDF calls stay inline; sandbox crossings
//     already partition large batches across workers internally
//     (udfrun.go), and stacking the two would oversubscribe trust-domain
//     sandboxes.
package exec

import (
	"context"
	"slices"

	"lakeguard/internal/plan"
	"lakeguard/internal/types"
)

// exprsHaveUDF reports whether any expression contains a UDF call.
func exprsHaveUDF(exprs []plan.Expr) bool {
	return slices.ContainsFunc(exprs, func(e plan.Expr) bool {
		return plan.ExprContains(e, func(x plan.Expr) bool {
			_, ok := x.(*plan.UDFCall)
			return ok
		})
	})
}

// buildFilter compiles a Filter node into a stream that drops the batches
// no row of which passes.
func (e *Engine) buildFilter(qc *QueryContext, t *plan.Filter, child operator) (operator, error) {
	cond, err := e.compileExprs(qc, []plan.Expr{t.Cond}, t.Child.Schema().Kinds(), []types.Kind{types.KindBool})
	if err != nil {
		child.Close()
		return nil, err
	}
	return newStream(qc.GoContext(), e.streamWorkers(cond, unknownMorsels), child, batchSource(child),
		func(_ context.Context, b *types.Batch) (*types.Batch, error) { return filterBatch(b, cond) }, skipEmptyBatch), nil
}

// buildProject compiles a Project node into a stream; empty batches pass
// through.
func (e *Engine) buildProject(qc *QueryContext, t *plan.Project, child operator) (operator, error) {
	exprs, err := e.compileExprs(qc, t.Exprs, t.Child.Schema().Kinds(), t.OutSchema.Kinds())
	if err != nil {
		child.Close()
		return nil, err
	}
	return newStream(qc.GoContext(), e.streamWorkers(exprs, unknownMorsels), child, batchSource(child),
		func(_ context.Context, b *types.Batch) (*types.Batch, error) {
			return projectBatch(b, exprs, t.OutSchema)
		}, nil), nil
}
